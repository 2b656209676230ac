"""Command-line interface for running protocol deployments and experiments.

Installed as ``python -m repro.cli`` (or imported and called with an
argument list, which is how the tests drive it).  Six subcommands cover
the common workflows:

* ``run``         — execute one protocol deployment (flags or a ``--spec``
  JSON file, the :meth:`DeploymentSpec.to_dict` schema) and print metrics;
* ``matrix``      — run a scenario-matrix sweep (protocols × faults ×
  media × topologies) through the session runner and invariant battery;
* ``experiment``  — regenerate one of the paper's tables/figures by name;
* ``feasibility`` — print the Fig. 1 feasible-region summary for a payload
  range and system-size range;
* ``fuzz``        — run the closed-loop fault-schedule fuzzer (generate →
  detect → shrink) and optionally persist shrunk reproducers to a corpus
  directory;
* ``analyze``     — run detlint, the determinism static analyzer, over the
  source tree (see ``docs/analysis.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from repro.core.adversary import FaultPlan
from repro.eval.tables import format_table
from repro.net.impairment import SpecError, parse_impairment, read_json
from repro.optional import MissingDependencyError
from repro.session import run_protocol
from repro.session.spec import MEDIA, PROTOCOLS, TOPOLOGIES, DeploymentSpec

#: Experiment names accepted by the ``experiment`` subcommand, mapped to the
#: :mod:`repro.eval.experiments` function each one calls.  Names, not
#: functions: the experiments module (like the fuzzer and the analyzer) is
#: imported by the subcommand that runs it, so ``repro run`` loads none of them.
EXPERIMENTS = {
    "table1": "table1_media_energy",
    "table2": "table2_signature_energy",
    "table3": "table3_complexity",
    "fig1": "fig1_feasible_region",
    "fig2a": "fig2a_kcast_reliability",
    "fig2b": "fig2b_unicast_vs_multicast",
    "fig2c": "fig2c_leader_vs_replica",
    "fig2e": "fig2e_view_change_energy",
    "fig2f": "fig2f_total_energy_vs_n",
    "headline": "headline_ratios",
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs generation)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # A ``run`` flag whose default is the spec's reads it from the dataclass.
    defaults = {f.name: f.default for f in dataclasses.fields(DeploymentSpec)}
    run = sub.add_parser("run", help="run one protocol deployment")
    run.add_argument("--protocol", default="eesmr", choices=list(PROTOCOLS))
    run.add_argument("--nodes", "-n", type=int, default=defaults["n"])
    # Not the dataclass's 1 / 2: the CLI's default run is the documented -n 7 -f 2 -k 3.
    run.add_argument("--faults", "-f", type=int, default=2)
    run.add_argument("--kcast", "-k", type=int, default=3)
    run.add_argument("--blocks", type=int, default=defaults["target_height"])
    run.add_argument("--payload-bytes", type=int, default=defaults["command_payload_bytes"])
    run.add_argument("--scheme", default=defaults["signature_scheme"])
    run.add_argument("--seed", type=int, default=defaults["seed"])
    run.add_argument(
        "--leader-fault",
        choices=["none", "silent_leader", "equivocate", "crash"],
        default="none",
        help="make the view-1 leader Byzantine",
    )
    run.add_argument(
        "--spec",
        metavar="FILE.json",
        help="run the DeploymentSpec serialised in this JSON file "
        "(DeploymentSpec.to_dict schema); other run flags are ignored",
    )
    run.add_argument(
        "--workload",
        default=None,
        metavar="KIND",
        help="traffic shape: 'closed-loop' (default), "
        "'open-loop:<rate>[:<clients>[:<duration>]]' (seeded Poisson "
        "arrivals in virtual time) or 'trace:<file>' (timestamped JSON "
        "command stream); non-default workloads also print SLO metrics",
    )
    run.add_argument(
        "--txpool-limit",
        type=int,
        default=None,
        metavar="N",
        help="bound every replica's txpool to N pending commands "
        "(default: unbounded); overflow drops are counted and reported",
    )
    run.add_argument(
        "--block-interval",
        type=float,
        default=defaults["block_interval"],
        help="virtual time between successive proposals (default 0.0)",
    )
    run.add_argument(
        "--impair",
        action="append",
        default=None,
        metavar="CLAUSE",
        help="wire impairment clause; repeatable. Grammar: "
        "'loss:<p>[:<start>:<end>]', 'duplicate:<p>', 'jitter:<seconds>', "
        "'reorder:<p>', 'ble[:<start>:<end>]' (advertisement-loss residual "
        "calibrated from the medium's redundancy) and 'retries:<n>' "
        "(reliable-sublayer retry budget, default 3)",
    )

    matrix = sub.add_parser(
        "matrix", help="run a scenario-matrix sweep with the invariant battery"
    )
    matrix.add_argument("--protocols", nargs="+", default=list(PROTOCOLS), choices=list(PROTOCOLS))
    matrix.add_argument(
        "--faults",
        nargs="+",
        default=None,
        help="fault-schedule names from repro.testkit.scenarios.FAULT_LIBRARY "
        "(default: the canonical three-fault slice)",
    )
    matrix.add_argument("--media", nargs="+", default=["ble"], choices=list(MEDIA))
    matrix.add_argument(
        "--topologies", nargs="+", default=["ring-kcast"], choices=list(TOPOLOGIES)
    )
    matrix.add_argument("--nodes", "-n", type=int, default=5)
    matrix.add_argument("--faulty", "-f", type=int, default=1)
    matrix.add_argument("--kcast", "-k", type=int, default=2)
    matrix.add_argument("--blocks", type=int, default=3)
    matrix.add_argument("--seed", type=int, default=29)
    matrix.add_argument(
        "--workloads",
        nargs="+",
        default=None,
        help="workload-axis names from repro.testkit.scenarios.WORKLOAD_LIBRARY "
        "('preload', 'open-loop') or parameterised 'open-loop:<rate>' / "
        "'trace:<file>' forms (default: preload only)",
    )
    matrix.add_argument(
        "--block-interval",
        type=float,
        default=0.0,
        help="virtual time between successive proposals (default 0.0; "
        "open-loop cells need a positive interval to be meaningful)",
    )
    matrix.add_argument(
        "--impairments",
        nargs="+",
        default=None,
        help="impairment-axis names from repro.testkit.scenarios."
        "IMPAIRMENT_LIBRARY ('none', 'ble-calibrated', 'lossy') or "
        "parameterised 'loss:<p>' / 'duplicate:<p>' / 'jitter:<s>' / "
        "'reorder:<p>' / 'ble' clauses (default: none only)",
    )
    matrix.add_argument(
        "--parallel", type=int, default=None, help="worker processes (default: serial)"
    )
    matrix.add_argument(
        "--dump-specs",
        metavar="FILE.json",
        help="also write every runnable cell's DeploymentSpec (to_dict schema)",
    )

    experiment = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))

    feas = sub.add_parser("feasibility", help="Fig. 1 feasible-region summary")
    feas.add_argument("--max-nodes", type=int, default=40)
    feas.add_argument("--payloads", type=int, nargs="+", default=[256, 1024, 4096])

    fuzz = sub.add_parser(
        "fuzz", help="fuzz random fault schedules through the invariant battery"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="fuzz seed (schedule stream)")
    fuzz.add_argument("--iterations", type=int, default=20, help="schedules to try")
    fuzz.add_argument(
        "--out",
        metavar="DIR",
        help="persist shrunk reproducers as corpus entries under this directory",
    )
    fuzz.add_argument(
        "--report",
        metavar="FILE.json",
        help="also write the full canonical campaign report as JSON",
    )
    fuzz.add_argument("--nodes", "-n", type=int, default=5)
    fuzz.add_argument("--kcast", "-k", type=int, default=2)
    fuzz.add_argument("--topology", default="ring-kcast", choices=list(TOPOLOGIES))
    fuzz.add_argument("--medium", default="ble", choices=list(MEDIA))
    fuzz.add_argument("--blocks", type=int, default=3)
    fuzz.add_argument("--block-interval", type=float, default=2.0)
    fuzz.add_argument("--max-atoms", type=int, default=3)
    fuzz.add_argument(
        "--kinds",
        nargs="+",
        default=None,
        help="fault-atom kinds to draw from (default: every registered kind)",
    )
    fuzz.add_argument(
        "--protocols", nargs="+", default=list(PROTOCOLS), choices=list(PROTOCOLS)
    )

    analyze = sub.add_parser(
        "analyze",
        help="run detlint, the determinism static analyzer",
    )
    # The analyzer owns its flag set; keep it in one place so
    # ``python -m repro.analysis`` and ``repro analyze`` never drift.
    from repro.analysis import add_arguments as add_analysis_arguments

    add_analysis_arguments(analyze)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.spec:
        spec = DeploymentSpec.from_dict(read_json(args.spec, dict))
    else:
        from repro.workload import parse_workload

        fault_plan = FaultPlan()
        if args.leader_fault != "none":
            fault_plan = FaultPlan(faulty=(0,), behaviour=args.leader_fault)
        spec = DeploymentSpec(
            protocol=args.protocol,
            n=args.nodes,
            f=args.faults,
            k=args.kcast,
            target_height=args.blocks,
            block_interval=args.block_interval,
            command_payload_bytes=args.payload_bytes,
            signature_scheme=args.scheme,
            seed=args.seed,
            fault_plan=fault_plan,
            workload=parse_workload(args.workload) if args.workload else None,
            txpool_limit=args.txpool_limit,
            impairment=parse_impairment(args.impair) if args.impair else None,
        )
    engine = spec.workload
    metrics = None
    if engine is not None and not engine.is_default():
        # Non-default traffic: run with SLO metrics attached.
        from repro.session.metrics import MetricsObserver

        metrics = MetricsObserver()
    result = run_protocol(spec, observers=(metrics,) if metrics is not None else ())
    print(f"protocol            : {spec.protocol}")
    print(f"n / f / k           : {spec.n} / {spec.f} / {spec.k}")
    print(f"committed blocks    : {result.committed_blocks}")
    print(f"safety              : {'OK' if result.safety.consistent else 'VIOLATED'}")
    print(f"view changes        : {result.view_changes}")
    print(f"energy per block    : {result.energy_per_block_mj:.1f} mJ (correct nodes)")
    print(
        f"energy per command  : {result.energy_per_distinct_command_mj:.1f} mJ "
        f"({result.distinct_commands} distinct commands)"
    )
    print(f"leader per block    : {result.leader_energy_per_block_mj:.1f} mJ")
    print(f"sign / verify ops   : {result.sign_operations} / {result.verify_operations}")
    if result.commands_dropped or result.commands_duplicate:
        print(
            f"txpool admission    : {result.commands_dropped} dropped / "
            f"{result.commands_duplicate} duplicate "
            f"(high watermark {result.txpool_high_watermark})"
        )
    if result.deliveries_dropped or result.deliveries_retransmitted or result.delivery_giveups:
        print(
            f"lossy deliveries    : {result.deliveries_dropped} dropped / "
            f"{result.deliveries_retransmitted} retransmitted / "
            f"{result.delivery_giveups} given up"
        )
    if metrics is not None:
        summary = metrics.summary()
        overall = summary["overall"]
        p50, p99 = overall["latency_p50"], overall["latency_p99"]
        print(f"workload            : {engine.describe()['kind']}")
        print(
            f"offered / committed : {summary['offered']} / "
            f"{summary['committed_commands']} (dropped {summary['dropped']})"
        )
        print(
            f"commit latency      : p50 "
            f"{'n/a' if p50 is None else f'{p50:.3f}'} / p99 "
            f"{'n/a' if p99 is None else f'{p99:.3f}'} (virtual time)"
        )
        print(f"goodput             : {overall['goodput']:.3f} commands/time")
    return 0 if result.safety.consistent else 1


def _cmd_matrix(args: argparse.Namespace) -> int:
    # Lazy import: the testkit (and its sweep machinery) is only needed here.
    from repro.testkit.scenarios import (
        DEFAULT_FAULTS,
        DEFAULT_IMPAIRMENTS,
        DEFAULT_WORKLOADS,
        ScenarioMatrix,
        schedule_feasibility,
    )

    matrix = ScenarioMatrix(
        protocols=tuple(args.protocols),
        fault_names=tuple(args.faults) if args.faults else DEFAULT_FAULTS,
        media=tuple(args.media),
        topologies=tuple(args.topologies),
        workloads=tuple(args.workloads) if args.workloads else DEFAULT_WORKLOADS,
        impairments=tuple(args.impairments) if args.impairments else DEFAULT_IMPAIRMENTS,
        n=args.nodes,
        f=args.faulty,
        k=args.kcast,
        target_height=args.blocks,
        block_interval=args.block_interval,
        seed=args.seed,
    )
    if args.dump_specs:
        specs = []
        for cell in matrix.cells():
            spec = matrix.build_spec(cell)
            if schedule_feasibility(spec) is None:
                specs.append(spec.to_dict())
        with open(args.dump_specs, "w") as handle:
            json.dump(specs, handle, indent=2, sort_keys=True)
        print(f"wrote {len(specs)} runnable cell specs to {args.dump_specs}")
    report = matrix.run(parallel=args.parallel)
    print(f"cells run           : {report.cells_run}")
    print(f"cells skipped       : {report.cells_skipped}")
    for skip in report.skipped:
        print(f"  skip: {skip.label()}")
    if report.ok:
        print("invariants          : OK")
        return 0
    print(f"invariants          : {len(report.failures())} FAILURES")
    for failure in report.failures():
        print(f"  FAIL: {failure}")
    return 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    result = getattr(experiments, EXPERIMENTS[args.name])()
    if isinstance(result, experiments.FeasibleRegion):
        result = result.summary_rows()
    if isinstance(result, list) and result and isinstance(result[0], dict):
        headers = list(result[0].keys())
        print(format_table(headers, [[row[h] for h in headers] for row in result]))
    elif isinstance(result, list):
        for item in result:
            print(item)
    elif isinstance(result, dict):
        for key, value in result.items():
            print(f"{key}: {value}")
    else:
        print(result)
    return 0


def _cmd_feasibility(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    node_counts = tuple(range(4, args.max_nodes + 1, 2))
    if not node_counts:
        raise SpecError(f"the node axis starts at 4, got {args.max_nodes}", "max-nodes")
    negative = [size for size in args.payloads if size < 0]
    if negative:
        raise SpecError(f"payload sizes cannot be negative, got {negative}", "payloads")
    region = experiments.fig1_feasible_region(
        message_sizes=tuple(args.payloads), node_counts=node_counts
    )
    rows = [
        [r["message_bytes"], r["crossover_n"], f"{r['favourable_fraction']:.0%}"]
        for r in region.summary_rows()
    ]
    print(format_table(["payload (B)", "EESMR loses from n =", "EESMR-favourable share"], rows))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    # Lazy import: the fuzzer pulls in the session/testkit stack.
    from pathlib import Path

    from repro.fuzz import DEFAULT_KINDS, FuzzConfig, Fuzzer

    config = FuzzConfig(
        n=args.nodes,
        k=args.kcast,
        topology=args.topology,
        medium=args.medium,
        target_height=args.blocks,
        block_interval=args.block_interval,
        max_atoms=args.max_atoms,
        kinds=tuple(args.kinds) if args.kinds else DEFAULT_KINDS,
        protocols=tuple(args.protocols),
    )
    fuzzer = Fuzzer(config, seed=args.seed)
    report = fuzzer.run(args.iterations)
    print(f"seed                : {report.seed}")
    print(f"schedules tried     : {report.iterations}")
    print(f"candidates rejected : {report.rejected} (infeasible, redrawn)")
    print(f"protocol runs       : {report.runs}")
    print(f"findings            : {len(report.findings)}")
    for finding in report.findings:
        shrunk = finding.shrunk
        atoms = ", ".join(atom["kind"] for atom in shrunk.schedule.describe())
        key = ", ".join(f"{p}/{inv}" for p, inv in sorted(shrunk.failure_key))
        print(
            f"  iter {finding.iteration}: [{atoms}] fails {key} "
            f"(shrunk in {shrunk.steps} steps / {shrunk.evaluations} evals)"
        )
    if args.out and report.findings:
        written = fuzzer.save_findings(report, Path(args.out))
        for path in written:
            print(f"  wrote reproducer  : {path}")
    if args.report:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        with open(report_path, "w") as handle:
            json.dump(report.describe(), handle, indent=2, sort_keys=True)
        print(f"wrote report        : {args.report}")
    return 1 if report.failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (MissingDependencyError, SpecError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "matrix":
        return _cmd_matrix(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "feasibility":
        return _cmd_feasibility(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "analyze":
        from repro.analysis import run_cli as run_analysis_cli

        return run_analysis_cli(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
