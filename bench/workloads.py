"""The five workloads: seeded input generation and operation execution.

An *operation* is one deployment run to quiescence and collected (one
``RunResult``; one scenario-matrix cell is one operation).  A workload is
a fixed list of operations; ``--seed`` is added to every operation's base
seed, and the program under test only ever receives the generated
``DeploymentSpec``s (or a ``ScenarioMatrix`` built from the seed).

All load is generated in virtual time: ``hop_delay = 1.0`` virtual seconds
per hop, Δ from ``compute_delta``, hop jitter on.  Open-loop arrivals are
simulator events, so the generator is never late by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

# What a CLI user's process imports before the first build can start; the
# set-up metric times exactly this plus input generation.
import repro.cli  # noqa: F401
from repro.core.adversary import FaultPlan
from repro.eval.runner import PROTOCOLS, DeploymentSpec, RunResult
from repro.net.impairment import ImpairmentSpec
from repro.session import MetricsObserver, SessionBuilder
from repro.testkit.scenarios import ScenarioMatrix
from repro.workload import ClosedLoopPreload, OpenLoopPoisson

REPLICATED = ("eesmr", "sync-hotstuff", "optsync")
VIEW_CHANGE_BEHAVIOURS = ("silent_leader", "equivocate", "crash")
OPEN_LOOP_RATES = (0.25, 0.5, 1.0)
#: p99 commit-latency objective (virtual s) of the open-loop workload.
SLO_P99 = 40.0
#: optsync is left out of the recovery slice: with a positive block interval
#: it stalls under partition-heal / crash-recover at about one seed in eight
#: (a correctness issue, not this benchmark's), and no operation may fail.
RECOVERY_PROTOCOLS = ("eesmr", "sync-hotstuff", "trusted-baseline")
RECOVERY_FAULTS = ("partition-heal", "crash-recover", "loss-window")
_MATRIX_AXES = (
    "protocols", "fault_names", "media", "n", "f", "k", "target_height",
    "block_interval", "seed",
)


@dataclass
class Operation:
    """One executed deployment and the public objects its counts come from."""

    label: str
    spec: Optional[DeploymentSpec] = None
    result: Optional[RunResult] = None
    #: Why the operation failed before or beside its ``RunResult``: it
    #: raised, or its matrix cell / the differential check was not ok.
    error: Optional[str] = None
    events: int = 0
    hop_attempts: int = 0
    offered: int = 0
    #: Committed log of the lowest-height correct node.
    committed_ids: Sequence[str] = ()
    #: ``MetricsObserver.summary()`` where one was attached.
    slo: Optional[Dict[str, Any]] = None
    trace_events: int = 0
    invariant_checks: int = 0

    def describe(self) -> Dict[str, Any]:
        return self.spec.to_dict() if self.spec is not None else {"label": self.label}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str
    #: ``(seed, small) -> inputs``; ``small`` is the smoke test's shrunken copy.
    generate: Callable[[int, bool], List[Any]]
    #: Attach a ``MetricsObserver`` with this objective to every operation.
    slo_p99: Optional[float] = None
    matrix: bool = False

    def describe(self, inputs: List[Any]) -> List[Dict[str, Any]]:
        """The generated inputs as plain data, for the ledger file."""
        if self.matrix:
            return [{axis: getattr(matrix, axis) for axis in _MATRIX_AXES} for matrix in inputs]
        return [spec.to_dict() for spec in inputs]

    def run(self, inputs: List[Any]) -> Iterator[Operation]:
        """Execute the round's operations in order."""
        for item in inputs:
            if self.matrix:
                yield from _run_matrix(item)
            else:
                yield _run_session(item, self.slo_p99)


def reference_node(result: RunResult) -> int:
    """The correct node with the lowest committed height (lowest id on ties)."""
    byzantine = set(result.spec.byzantine_nodes)
    return min(
        (height, pid)
        for pid, height in result.committed_heights.items()
        if pid not in byzantine
    )[1]


def _run_session(spec: DeploymentSpec, slo_p99: Optional[float]) -> Operation:
    op = Operation(label=f"{spec.protocol} seed={spec.seed}", spec=spec)
    observer = MetricsObserver(slo_p99=slo_p99) if slo_p99 is not None else None
    try:
        session = SessionBuilder(
            spec, observers=(observer,) if observer is not None else ()
        ).build()
        result = session.run_to_quiescence().finish()
    except Exception as error:  # an operation that raises is a failed operation
        op.error = f"raised {error!r}"
        return op
    op.result = result
    op.events = session.sim.executed_events
    impairment = session.network.impairment
    op.hop_attempts = impairment.attempts if impairment is not None else 0
    op.offered = len(session.commands)
    op.committed_ids = session.replicas[reference_node(result)].log.committed_command_ids()
    op.slo = observer.summary() if observer is not None else None
    return op


def _run_matrix(matrix: ScenarioMatrix) -> Iterator[Operation]:
    try:
        # parallel=1 explicitly, so REPRO_MATRIX_PARALLEL cannot leak in.
        report = matrix.run(parallel=1)
    except Exception as error:
        yield Operation(label=f"matrix seed={matrix.seed}", error=f"raised {error!r}")
        return
    operations = []
    for outcome in report.outcomes:
        result, trace, spec = outcome.result, outcome.result.trace, outcome.spec
        op = Operation(label=outcome.cell.label(), spec=spec, result=result)
        if not outcome.ok:
            op.error = "; ".join(r.detail for r in outcome.violations())
        op.events = trace.executed_events
        op.hop_attempts = trace.network.get("impairments", {}).get("attempts", 0)
        engine = spec.workload if spec.workload is not None else ClosedLoopPreload()
        op.offered = len(engine.commands_for(spec))
        op.committed_ids = trace.committed_commands[reference_node(result)]
        op.slo = outcome.metrics
        op.trace_events = len(trace.events)
        op.invariant_checks = len(outcome.reports)
        operations.append(op)
    for failure in report.differential_failures:
        # "differential: <cell label> committed ..." names the cell that
        # diverged from its group's reference.
        culprit = next(
            (op for op in operations if failure.startswith(f"differential: {op.label} ")),
            operations[-1],
        )
        culprit.error = f"{culprit.error}; {failure}" if culprit.error else failure
    yield from operations


# ------------------------------------------------------------------ generators
def _shrink(spec: DeploymentSpec) -> DeploymentSpec:
    n = min(spec.n, 7)
    return dataclasses.replace(
        spec, n=n, f=min(spec.f, (n - 1) // 4), target_height=min(spec.target_height, 5)
    )


def _sessions(build: Callable[[int], List[DeploymentSpec]]):
    def generate(seed: int, small: bool = False) -> List[DeploymentSpec]:
        specs = build(seed)
        return [_shrink(spec) for spec in specs] if small else specs

    return generate


def _steady(seed: int) -> List[DeploymentSpec]:
    return [
        DeploymentSpec(
            protocol=protocol, n=25, f=5, k=2, target_height=50,
            command_payload_bytes=64, seed=7 + seed,
        )
        for protocol in PROTOCOLS
    ]


def _viewchange(seed: int) -> List[DeploymentSpec]:
    return [
        DeploymentSpec(
            protocol=protocol, n=25, f=5, k=2, target_height=10, seed=7 + seed,
            fault_plan=FaultPlan(faulty=(0,), behaviour=behaviour),
        )
        for protocol in REPLICATED
        for behaviour in VIEW_CHANGE_BEHAVIOURS
    ]


def _scale(seed: int) -> List[DeploymentSpec]:
    return [
        DeploymentSpec(
            protocol="eesmr", n=100, f=10, k=2, target_height=40,
            command_payload_bytes=1024, seed=base + seed,
        )
        for base in (7, 8, 9)
    ]


def _lossy(seed: int) -> List[DeploymentSpec]:
    return [
        DeploymentSpec(
            protocol=protocol, n=7, f=2, k=2, target_height=60, block_interval=0.5,
            batch_size=8, txpool_limit=32, seed=17 + seed,
            workload=OpenLoopPoisson(rate=rate, clients=3),
            impairment=ImpairmentSpec(
                loss=0.1, duplicate=0.05, jitter=0.25, ble_calibrated=True
            ),
        )
        for protocol in ("eesmr", "sync-hotstuff")
        for rate in OPEN_LOOP_RATES
    ]


def _matrix(seed: int, small: bool = False) -> List[ScenarioMatrix]:
    media = {"media": ("ble",)} if small else {}
    return [
        # (a) the matrix_wall_clock sweep of repro.perf, for continuity.
        ScenarioMatrix(n=7, f=2, k=3, target_height=3, seed=41 + seed, **media),
        # (b) recovery / fault-atom cells of the default matrix.
        ScenarioMatrix(
            protocols=RECOVERY_PROTOCOLS, fault_names=RECOVERY_FAULTS,
            block_interval=2.0, seed=29 + seed, **media,
        ),
    ]


WORKLOADS = (
    Workload(
        name="steady-n25",
        why="The paper's operating point, all four protocols: crypto+core dominate, "
        "so signature, canonicalisation and message-memo work shows here.",
        loop="closed-loop preload",
        generate=_sessions(_steady),
    ),
    Workload(
        name="viewchange-n25",
        why="Leader faults at n=25: timers fire and blame/QC floods and unicasts "
        "dominate, so a steady-state gain that costs the failure path shows here.",
        loop="closed-loop preload",
        generate=_sessions(_viewchange),
    ),
    Workload(
        name="scale-n100",
        why="EESMR at n=100 with 1 KiB commands: event queue, dissemination and "
        "bookkeeping; crypto is ~2 %, so it bypasses crypto optimisations; memory workload.",
        loop="closed-loop preload",
        generate=_sessions(_scale),
    ),
    Workload(
        name="lossy-openloop-n7",
        why="Open-loop Poisson load at three fixed rates over a lossy BLE medium: the only "
        "workload where impairment draws, retransmit chains, txpool bounds and an observer work.",
        loop="open loop, 3 fixed rates x 3 clients, virtual time (generator lateness 0)",
        generate=_sessions(_lossy),
        slo_p99=SLO_P99,
    ),
    Workload(
        name="matrix-n7",
        why="63 short scenario-matrix cells with TraceRecorder, invariants and the "
        "differential check on: per-run set-up, trace capture, recovery and fault atoms.",
        loop="closed-loop preload",
        generate=_matrix,
        matrix=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: The injected delay model, recorded with every result.
DELAY_MODEL = (
    "virtual time: hop_delay = 1.0 virtual s per hop, delta from compute_delta, hop "
    "jitter on; open-loop arrivals are simulator events, so generator lateness is 0"
)
