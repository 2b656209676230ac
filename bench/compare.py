"""``python3 -m bench --compare A.json B.json``: apply the bounds.

``A`` is the parent's ledger, ``B`` the change's.  Sampled end-to-end
metrics (``setup_s``, ``host_cost``, ``peak_rss_mb``) may move by their
bound; the three modelled metrics and every count must be exactly equal at
the same seed.  One row per workload x metric, verdict ``same`` /
``better`` / ``worse`` / ``unresolved`` (the recorded run-to-run noise of a
sampled median is wider than its bound, so "no change" cannot be claimed).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from bench.metrics import END_TO_END, MODELLED, PER_LAYER, is_exact


def verdict(a: float, b: float, better: str, bound: float, noise: float = 0.0) -> str:
    if a == b:
        return "same"
    if bound == 0.0:
        return "better" if (b < a) == (better == "lower") else "worse"
    worsening = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if noise > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    """Print the rows; returns the number of ``worse`` verdicts."""
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); counts will not match")
    worse = 0
    print(f"{'workload':<18} {'metric':<32} {'A':>18} {'B':>18}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        rows = [("ops_failed", wa["ops_failed"], wb["ops_failed"], "lower", 0.0, 0.0)]
        for metric in END_TO_END:
            bound = 0.0 if metric.name in MODELLED else metric.bound
            noise = max(wa["noise"].get(metric.name, 0.0), wb["noise"].get(metric.name, 0.0))
            rows.append((metric.name, wa["end_to_end"][metric.name],
                         wb["end_to_end"][metric.name], metric.better, bound, noise))
        for metric in PER_LAYER:
            if is_exact(metric.name):
                rows.append((metric.name, wa["per_layer"][metric.name],
                             wb["per_layer"][metric.name], metric.better, 0.0, 0.0))
        for metric_name, va, vb, better, bound, noise in rows:
            result = verdict(va, vb, better, bound, noise)
            worse += result == "worse"
            print(f"{name:<18} {metric_name:<32} {va!r:>18} {vb!r:>18}  {result}")
    print(f"{worse} worse")
    return worse


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        return 1 if compare(json.load(fa), json.load(fb)) else 0
