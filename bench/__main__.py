"""Command line of the performance ledger (see ``bench/README.md``).

* ``python3 -m bench --workload W --seed S --seconds T --trace 0|1`` — one
  workload, the form ``BENCHMARK.json`` names; the last line of standard
  output is the result object.
* ``python3 -m bench [--seed S] [--rounds R] [--out FILE]`` — all five
  workloads, rounds interleaved round-robin, every metric printed by name
  and written to ``FILE``.
* ``python3 -m bench --compare A.json B.json`` — apply the bounds to two
  ledger files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from bench import metrics
from bench.compare import compare_files
from bench.workloads import BY_NAME, DELAY_MODEL, WORKLOADS

# bench.harness is imported where it is used: the set-up child, whose life
# time is the set-up metric, must not pay for the harness's own imports.


def _print_metrics(workload: str, values: Dict[str, float]) -> None:
    for name, value in values.items():
        print(f"{workload:<18} {name:<32} {value!r:>24} {metrics.UNITS[name]}")


def _exit_code(failed: int) -> int:
    return 1 if failed else 0


def result_object(run, values: Dict[str, float]) -> Dict[str, Any]:
    """The object a single-workload run prints as its last line."""
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k]} for k, v in values.items()},
    }


def run_child(args: argparse.Namespace) -> int:
    """A fresh process the parent times (``setup``) or weighs (``round``)."""
    workload = BY_NAME[args.workload]
    if args.child == "setup":
        workload.generate(args.seed, False)
        return 0
    from bench.harness import WorkloadRun, own_peak_rss_mb

    run = WorkloadRun(workload, args.seed)
    run.round()
    print(own_peak_rss_mb())
    return _exit_code(run.failed)


def run_workload(args: argparse.Namespace) -> int:
    from bench.harness import measure

    run = measure(BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace))
    values = run.per_layer() if args.trace else run.end_to_end()
    _print_metrics(args.workload, values)
    print(json.dumps(result_object(run, values)))
    return _exit_code(run.failed)


def run_ledger(args: argparse.Namespace) -> int:
    from bench import calibrate
    from bench.harness import WorkloadRun

    started = time.perf_counter()
    runs = [WorkloadRun(workload, args.seed) for workload in WORKLOADS]
    for run in runs:
        run.round()
        run.measure_children()
    kernel = calibrate.time_kernel()
    # Round-robin, so a noisy minute hits every workload alike.
    for _ in range(args.rounds):
        for run in runs:
            kernel = run.timed_round(kernel)
    for run in runs:
        run.traced_round()
        run.write_spans()
    ledger: Dict[str, Any] = {
        "command": "python3 -m bench " + " ".join(sys.argv[1:]),
        "seed": args.seed,
        "rounds": args.rounds,
        "delay_model": DELAY_MODEL,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "metrics": {
            "end_to_end": [m._asdict() for m in metrics.END_TO_END],
            "per_layer": [m._asdict() for m in metrics.PER_LAYER],
        },
        "workloads": {},
    }
    for run in runs:
        name = run.workload.name
        end_to_end, per_layer = run.end_to_end(), run.per_layer()
        _print_metrics(name, {**end_to_end, **per_layer})
        print(f"{name:<18} ops_attempted={run.attempted} ops_failed={run.failed}")
        ledger["workloads"][name] = {
            "why": run.workload.why,
            "loop": run.workload.loop,
            "inputs": run.workload.describe(run.inputs),
            "ops_attempted": run.attempted,
            "ops_failed": run.failed,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "noise": run.noise(),
            "edges": run.traces[0]["edges"],
        }
    ledger["wall_s"] = time.perf_counter() - started
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(ledger, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"ledger written to {args.out} ({ledger['wall_s']:.1f} s)")
    return _exit_code(sum(run.failed for run in runs))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="measure this one workload")
    parser.add_argument("--seed", type=int, default=0, help="added to every base seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass, per-layer metrics")
    parser.add_argument("--rounds", type=int, default=25, help="timed rounds per workload (ledger)")
    parser.add_argument("--out", default="bench/out/ledger.json", help="ledger file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--manifest", type=int, metavar="RUN_SECONDS",
                        help="print the BENCHMARK.json this package is written to")
    parser.add_argument("--child", choices=("setup", "round"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    if args.manifest is not None:
        print(json.dumps(metrics.manifest(args.manifest), indent=2))
        return 0
    if args.workload is not None:
        if args.workload not in BY_NAME:
            parser.error(f"unknown workload {args.workload!r}; known: {sorted(BY_NAME)}")
        return run_child(args) if args.child else run_workload(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
