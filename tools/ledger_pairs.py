"""Alternating parent/change pairs of one bench workload (``make ledger-pairs``).

The standing rule for a performance claim (docs/performance.md, "How to
measure a change"): at least ten pairs of the *unmodified* ``python3 -m
bench --workload W --seed S --seconds 15 --trace 0``, one run in each of two
checkouts, alternating which side runs first, a fresh seed per pair, every
run reported.  This script does exactly that: one line per pair with
each sampled metric's parent -> change value, then, per end-to-end
metric, its verdict (``gain``, ``worse``, ``unresolved`` or ``same``, by
the rules of that section and ``BENCHMARK.json``'s bounds), each side's
median and quartiles, the pairs the change won, and
whether the three modelled metrics were bit-identical in every pair; where
one was not, each pair's parent -> change value and whether it moved in
the metric's better direction, so a modelled gain gets its rows here too.
Last, one ``--trace 1`` run per side at the first pair's seed gives the
exact per-layer counts (``sim.events``, ``net.tx``, ...) that differ, and
each layer's ``*_share`` row as parent -> change: a timing from one
sampled run per side, so it shows where host time moved, not a claim.

Before the first pair it compiles both trees' bytecode: with
``PYTHONDONTWRITEBYTECODE`` set, a fresh clone would otherwise compile its
sources in every ``setup_s`` child and read slower than identical code.

It measures; it does not gate.  The exit status is non-zero only when a
bench run itself failed (an operation failed, or the calibration kernel
refused the host).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

MEASURED = ("host_cost", "setup_s", "peak_rss_mb")
MODELLED = ("energy_per_block_mj", "virtual_s_per_block", "goodput_cmd_per_vs")
#: Per-layer rows that are timings, not counts (``bench.metrics.is_exact``).
TIMED = ("bench.rounds", "bench.round_wall_s", "bench.cal_kernel_s", "bench.trace_overhead")


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One bench run inside ``tree``; returns its result object (last stdout line)."""
    # bench/ imports whatever ``repro`` is importable, so an inherited
    # PYTHONPATH would make both sides measure the same source tree.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable, "-m", "bench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"bench failed in {tree} (seed {seed}, exit {done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{name: entry["value"] for name, entry in result["metrics"].items()},
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(won: int, pairs: int, parent: tuple, c_med: float, better: str, bound: float) -> str:
    """The row docs/performance.md's rules give a metric ("How to measure a change").

    ``gain``: over at least ten pairs, the change won at least nine in ten
    and its median is better than the parent's by more than the parent's
    inter-quartile distance; ``worse``: its median is past the metric's
    relative bound;
    ``unresolved``: the parent's own spread (IQR over median) is wider
    than the bound; ``same`` otherwise.
    """
    p_q1, p_med, p_q3 = parent
    sign = 1 if better == "higher" else -1
    if pairs >= 10 and 10 * won >= 9 * pairs and sign * (c_med - p_med) > p_q3 - p_q1:
        return "gain"
    if -sign * (c_med - p_med) / p_med > bound:
        return "worse"
    if (p_q3 - p_q1) / p_med > bound:
        return "unresolved"
    return "same"


def spread(runs: list, name: str, better: str, bound: float) -> str:
    """Both sides' median and quartiles, the pairs the change won, and the verdict."""
    parent = [row["parent"][name] for row in runs]
    change = [row["change"][name] for row in runs]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    tied = sum(c == p for p, c in zip(parent, change))
    apart = abs(c_med - p_med) > (p_q3 - p_q1)
    row = verdict(won, len(runs), (p_q1, p_med, p_q3), c_med, better, bound)
    return (
        f"{row:10s} "
        f"parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
        f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  "
        f"median {(c_med / p_med - 1) * 100:+.1f} %  "
        f"change {better} in {won}/{len(runs)}"
        f"{f' ({tied} tied)' if tied else ''}  "
        f"medians {'further apart' if apart else 'NOT further apart'} than the parent's IQR"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7000, help="seed of the first pair")
    parser.add_argument("--seconds", type=int, default=15, help="BENCHMARK.json's run_seconds")
    parser.add_argument("--out", type=Path, help="also write every run as JSON")
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        for package in ("src", "bench"):
            compileall.compile_dir(tree / package, quiet=1)
    runs = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        row = {"seed": seed, "first": order[0]}
        for side in order:
            row[side] = run_bench(trees[side], args.workload, seed, args.seconds)
        runs.append(row)
        # Every sampled metric, so a claim on any of them has all its runs here.
        cells = "  ".join(
            f"{name} {row['parent'][name]:.3f} -> {row['change'][name]:.3f} "
            f"({(row['change'][name] / row['parent'][name] - 1) * 100:+.1f} %)"
            for name in MEASURED
        )
        print(f"pair {pair + 1:2d}  seed {seed}  first={order[0]:6s}  {cells}", flush=True)

    # Which way is better, and by how much a median may move, come from the
    # change's own benchmark declaration.
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in declared}
    bound = {metric["name"]: metric["bound"] for metric in declared}

    print(f"\n{args.workload}: {len(runs)} alternating pairs, --seconds {args.seconds}")
    for name in MEASURED:
        print(f"  {name:12s} {spread(runs, name, better[name], bound[name])}")
    for name in MODELLED:
        differing = [row for row in runs if row["parent"][name] != row["change"][name]]
        if not differing:
            print(f"  {name:20s} {'same':10s} bit-identical in every pair")
            continue
        # A modelled metric is deterministic per seed: one row per pair is
        # the whole evidence, so print it, with the direction it moved in.
        print(
            f"  {name:20s} DIFFERS in {len(differing)}/{len(runs)} pairs "
            f"({better[name]} is better)"
        )
        for row in differing:
            parent, change = row["parent"][name], row["change"][name]
            moved = "higher" if change > parent else "lower"
            print(
                f"      seed {row['seed']}  {parent:.8g} -> {change:.8g}  "
                f"({(change / parent - 1) * 100:+.2f} %)  "
                f"{'better' if moved == better[name] else 'WORSE'}"
            )
        print(f"      {spread(runs, name, better[name], bound[name])}")
    failed = {side: sum(row[side]["failed"] for row in runs) for side in trees}
    print(f"  failed operations: parent {failed['parent']}, change {failed['change']}")

    counts = {
        side: run_bench(tree, args.workload, args.seed, 0, trace=1) for side, tree in trees.items()
    }
    exact = [
        name for name in counts["change"]
        if name not in ("failed", "attempted", *TIMED) and not name.endswith("_share")
    ]
    moved = [name for name in exact if counts["parent"][name] != counts["change"][name]]
    print(f"\nexact per-layer counts, --trace 1 at seed {args.seed}: "
          f"{len(exact) - len(moved)} of {len(exact)} identical")
    for name in moved:
        parent, change = counts["parent"][name], counts["change"][name]
        print(f"  {name:28s} {parent!r} -> {change!r}"
              f"{f'  ({(change / parent - 1) * 100:+.1f} %)' if parent else ''}")
    shares = [name for name in counts["change"] if name.endswith("_share")]
    print(f"\nlayer shares, --trace 1 at seed {args.seed}: one sampled run per side, "
          f"a timing, not a count")
    for name in shares:
        print(f"  {name:28s} {counts['parent'][name]:.3f} -> {counts['change'][name]:.3f}")
    if args.out is not None:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
