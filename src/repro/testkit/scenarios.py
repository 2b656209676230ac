"""The scenario matrix: protocols × fault schedules × media × topologies.

The paper's evaluation rests on three adversarial scenarios and four
protocols, spot-checked by hand.  :class:`ScenarioMatrix` systematises
that: it enumerates the cross-product of

* protocol ∈ {eesmr, sync-hotstuff, optsync, trusted-baseline},
* fault schedule ∈ :data:`FAULT_LIBRARY` (honest, single faults, and
  composed f>1 schedules such as ``crash-leader+silent-relay`` or
  ``rolling-partitions``),
* medium ∈ {ble, wifi, 4g-lte},
* topology ∈ {ring-kcast, fully-connected, star, random-kcast, ...},

runs every *feasible* cell deterministically through
:func:`~repro.testkit.invariants.judge` (a session under a
:class:`~repro.testkit.trace.TraceRecorder`, then the full invariant
battery, :data:`~repro.testkit.invariants.DEFAULT_INVARIANTS`, over its
evidence; a run that raises a safety violation or trips its event budget
mid-run is a failed cell, not a traceback), and adds two differential
checks:

* within a cell, all correct replicas committed prefix-compatible command
  sequences (part of the agreement invariant);
* across protocols in the *same* fault-free closed-loop preload (medium,
  topology, impairment) group, the committed command sequence is
  identical — same preloaded stream, same log, no matter which protocol
  ordered it.

Byzantine behaviours that only exist for EESMR (equivocation, stalling)
are modelled as fail-stop for the baseline protocols, exactly as the seed
experiment runner does.

Infeasible cells are *skipped with a reason*, not run and spuriously
failed: a (topology, fault) pair is feasible only if the correct nodes
stay strongly connected with every concurrently relay-impaired node set
removed (the per-schedule instantiation of Lemma A.5's ``f < k`` bound
for the ring) and the Byzantine count fits the protocol's ``2f < n``
assumption.  Skips are recorded on the :class:`MatrixReport`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.session.spec import MEDIA, PROTOCOLS, DeploymentSpec
from repro.net.impairment import ImpairmentSpec, SpecError, parse_impairment
from repro.session.builder import build_topology
from repro.session.metrics import MetricsObserver
from repro.testkit import faults
from repro.workload import ClosedLoopPreload, OpenLoopPoisson, WorkloadEngine, parse_workload
from repro.testkit.invariants import (
    RUN_FAILURES,
    Evidence,
    InvariantReport,
    InvariantViolation,
    judge,
    run_failure_report,
)

#: Named fault-schedule builders.  Each takes the deployment size ``n`` and
#: returns a schedule (or ``None`` for the honest run).  Leader faults hit
#: node 0 (the view-1 leader under the round-robin schedule); replica
#: faults hit node n-1 (the last node, never an early leader).
FAULT_LIBRARY: Dict[str, Callable[[int], Optional[faults.FaultSchedule]]] = {
    "none": lambda n: None,
    # t=0: with the default zero block interval the EESMR leader proposes the
    # whole workload immediately, so only a start-time crash interrupts it.
    "crash-leader": lambda n: faults.crash_at(0, time=0.0),
    "stall-leader": lambda n: faults.stall_at(0, round_number=4),
    "equivocate-leader": lambda n: faults.equivocate_at(0, round_number=4),
    "silent-relay": lambda n: faults.silent(n - 1),
    "drop-window": lambda n: faults.drop_window(n - 1, start=1.0, end=8.0),
    "partition-heal": lambda n: faults.partition(n - 1, start=2.0, heal=10.0),
    # A full power cycle with state intact: the node reboots passively (no
    # protocol timers re-armed) and relies on catch-up state transfer for
    # whatever it missed while dark.
    "crash-recover": lambda n: faults.crash_recover(n - 1, start=1.0, heal=6.0),
    # ---- composed f>1 schedules -------------------------------------------
    # The crashed leader and the silent relay sit at 0 and n-2: non-adjacent
    # on the ring, so a k=2 ring survives both (two *adjacent* non-relaying
    # nodes would violate Lemma A.5's connectivity requirement).
    "crash-leader+silent-relay": lambda n: faults.crash_at(0, time=0.0).add(
        faults.SilentFrom(n - 2)
    ),
    # Adjacent crashes at 0 and n-1: deliberately infeasible on the k=2
    # ring (skipped with a Lemma A.5 reason) but fine on denser topologies.
    "two-crashes": lambda n: faults.crash_at(0, time=0.0).add(
        faults.CrashAt(n - 1, time=3.0)
    ),
    # A Byzantine leader equivocating *while* a correct node stops relaying:
    # recovery (blame, view change) must run through the degraded window.
    "equivocate+drop-window": lambda n: faults.equivocate_at(0, round_number=4).add(
        faults.RelayDropWindow(n - 2, 1.0, 8.0)
    ),
    # Three disjoint partition windows sweeping across the last three nodes;
    # at most one node is cut off at any instant.
    "rolling-partitions": lambda n: faults.FaultSchedule(
        (
            faults.PartitionWindow(n - 1, 1.0, 4.0),
            faults.PartitionWindow(n - 2, 4.5, 7.5),
            faults.PartitionWindow(n - 3, 8.0, 11.0),
        )
    ),
    # Two *overlapping* partition windows on the same node: the node must
    # stay cut off until the later window heals (the refcounted-isolation
    # regression).
    "overlapping-partitions": lambda n: faults.partition(n - 1, start=1.0, heal=6.0).add(
        faults.PartitionWindow(n - 1, 3.0, 9.0)
    ),
    # Two interleaved relay-drop windows on the same node: relaying must
    # resume only when the second window closes (the shared relay-denial
    # regression), and the node is still held to full liveness.
    "stacked-drop-windows": lambda n: faults.drop_window(n - 1, start=1.0, end=5.0).add(
        faults.RelayDropWindow(n - 1, 2.0, 9.0)
    ),
    # ---- wire impairment windows -------------------------------------------
    # Environmental, not Byzantine: the node's incoming hops degrade for a
    # window while the reliable sublayer retries.  Loss at 0.5 leaves honest
    # retry chains (default budget 3) straddling the window comfortably;
    # duplicate/jitter windows never excuse liveness at all.
    "loss-window": lambda n: faults.loss_window(n - 1, start=1.0, end=6.0, loss=0.5),
    "duplicate-window": lambda n: faults.duplicate_window(
        n - 1, start=1.0, end=6.0, probability=0.5
    ),
    "jitter-window": lambda n: faults.jitter_window(n - 1, start=1.0, end=6.0, jitter=0.5),
    # ---- adaptive (mobile) adversaries ------------------------------------
    # A leader-following crash adversary: executed mid-run over the
    # session's steppable control, it fail-stops whichever node the
    # rotation currently makes leader, waits for the view change, and
    # strikes the successor — the victim set is a function of the run.
    "adaptive-leader-crash": lambda n: faults.leader_following_crash(
        budget=1, start=0.0, interval=1.0
    ),
    # Budget-2 variant: needs a topology that survives two adversarially
    # placed silent relays (skipped on the k=2 ring by Lemma A.5).
    "adaptive-leader-crash-f2": lambda n: faults.leader_following_crash(
        budget=2, start=0.0, interval=1.0
    ),
    # ---- differential (protocol-splitting) schedules -----------------------
    # Promoted from the fuzz corpus (corpus/schedules/shs-partition-fork-*):
    # a short leader partition right as the view-1 leader proposes.  Sync
    # HotStuff forks — the isolated leader's chain conflicts with the view
    # change the others ran — while EESMR's relay-everything dissemination
    # absorbs the window cleanly.  The outcome is *expected to differ by
    # protocol*, so the entry is excluded from ALL_FAULTS (an all-protocol
    # sweep would spuriously fail) and exercised by a dedicated
    # differential test instead.
    "leader-partition-fork": lambda n: faults.partition(0, start=7.0, heal=7.25),
}

#: The default fault slice: every protocol supports these (Byzantine leader
#: behaviours degrade to fail-stop for the baselines), giving the canonical
#: 4 protocols × 3 faults × 3 media = 36-cell matrix.
DEFAULT_FAULTS = ("none", "crash-leader", "equivocate-leader")

#: The composed f>1 slice: multiple simultaneous faults per schedule.
COMPOSED_FAULTS = (
    "crash-leader+silent-relay",
    "two-crashes",
    "equivocate+drop-window",
    "rolling-partitions",
    "overlapping-partitions",
    "stacked-drop-windows",
)

#: The adaptive slice: mobile adversaries whose victims are chosen mid-run.
ADAPTIVE_FAULTS = ("adaptive-leader-crash", "adaptive-leader-crash-f2")

#: Schedules whose *expected outcome differs by protocol* (corpus
#: promotions): they live in the library for reuse by name, but an
#: all-protocol invariant sweep over them would spuriously fail, so the
#: full sweep excludes them and dedicated differential tests assert the
#: per-protocol expectations instead.
DIFFERENTIAL_FAULTS = ("leader-partition-fork",)

#: The extended slice adds the remaining library entries for a full sweep.
ALL_FAULTS = tuple(name for name in FAULT_LIBRARY if name not in DIFFERENTIAL_FAULTS)

#: Topology names usable as matrix axes (all thread through
#: :class:`~repro.session.spec.DeploymentSpec.topology`).
MATRIX_TOPOLOGIES = ("ring-kcast", "fully-connected", "star", "random-kcast")

#: Named workload builders for the matrix's workload axis.  ``"preload"``
#: (``None``: the default closed-loop engine) is the seed behaviour; the
#: open-loop entry is a moderate Poisson stream multiplexing three
#: simulated clients.  Rate-parameterised names (``open-loop:<rate>`` /
#: ``trace:<file>``) resolve through :func:`resolve_workload`.
WORKLOAD_LIBRARY: Dict[str, Callable[[], Optional[WorkloadEngine]]] = {
    "preload": lambda: None,
    "open-loop": lambda: OpenLoopPoisson(rate=2.0, clients=3),
}

#: The default workload slice: the seed behaviour only.
DEFAULT_WORKLOADS = ("preload",)


#: Named wire-impairment builders for the matrix's impairment axis.
#: ``"none"`` (no impairment model at all) is the seed behaviour and keeps
#: pre-axis traces byte-identical.  ``"ble-calibrated"`` drops each hop with
#: the advertisement-loss residual the medium's redundancy leaves
#: (``p_loss**r`` — the paper's BLE operating point); ``"lossy"`` is a flat
#: moderate loss the reliable sublayer must absorb.
IMPAIRMENT_LIBRARY: Dict[str, Callable[[], Optional[ImpairmentSpec]]] = {
    "none": lambda: None,
    "ble-calibrated": lambda: ImpairmentSpec(ble_calibrated=True),
    "lossy": lambda: ImpairmentSpec(loss=0.2),
}

#: The default impairment slice: the seed behaviour only.
DEFAULT_IMPAIRMENTS = ("none",)


def resolve_impairment(name: str) -> Optional[ImpairmentSpec]:
    """Resolve an impairment-axis name to a spec (``None`` = pristine wire).

    Accepts :data:`IMPAIRMENT_LIBRARY` names plus the parameterised CLI
    clause forms ``loss:<p>[:<start>:<end>]``, ``duplicate:<p>``,
    ``jitter:<s>``, ``reorder:<p>``, ``ble`` and ``retries:<n>``
    (see :func:`repro.net.impairment.parse_impairment`).
    """
    if name in IMPAIRMENT_LIBRARY:
        return IMPAIRMENT_LIBRARY[name]()
    if ":" in name or name == "ble":
        return parse_impairment([name])
    raise SpecError(
        f"unknown impairment {name!r}; known: {sorted(IMPAIRMENT_LIBRARY)} "
        f"plus loss:<p> / duplicate:<p> / jitter:<s> / reorder:<p> / ble",
        "impairments",
    )


def resolve_workload(name: str) -> Optional[WorkloadEngine]:
    """Resolve a workload-axis name to an engine (``None`` = preload).

    Accepts :data:`WORKLOAD_LIBRARY` names plus the parameterised CLI
    forms ``open-loop:<rate>[:<clients>[:<duration>]]`` and
    ``trace:<file>``.
    """
    if name in WORKLOAD_LIBRARY:
        return WORKLOAD_LIBRARY[name]()
    if name.startswith("open-loop:") or name.startswith("trace:"):
        return parse_workload(name)
    raise SpecError(
        f"unknown workload {name!r}; known: {sorted(WORKLOAD_LIBRARY)} "
        f"plus open-loop:<rate> / trace:<file>",
        "workloads",
    )


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the scenario cross-product."""

    protocol: str
    fault: str
    medium: str
    topology: str = "ring-kcast"
    #: Workload-axis name (see :data:`WORKLOAD_LIBRARY`); ``"preload"`` is
    #: the seed behaviour and keeps pre-axis labels unchanged.
    workload: str = "preload"
    #: Impairment-axis name (see :data:`IMPAIRMENT_LIBRARY`); ``"none"`` is
    #: the seed behaviour and keeps pre-axis labels unchanged.
    impairment: str = "none"

    def label(self) -> str:
        base = f"{self.protocol}×{self.fault}×{self.medium}×{self.topology}"
        if self.workload != "preload":
            base += f"×{self.workload}"
        if self.impairment != "none":
            base += f"×{self.impairment}"
        return base


@dataclass
class CellOutcome:
    """The evidence and verdicts collected from one cell."""

    cell: ScenarioCell
    spec: DeploymentSpec
    #: ``None`` (both) when the run itself raised: ``reports`` then holds
    #: the one failing report :func:`run_failure_report` maps it to.
    result: object
    evidence: Optional[Evidence]
    reports: List[InvariantReport] = field(default_factory=list)
    #: SLO metrics summary (collected for non-preload workload cells).
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    def violations(self) -> List[InvariantReport]:
        return [report for report in self.reports if not report.ok]


@dataclass(frozen=True)
class SkippedCell:
    """A cell the matrix declined to run, with the reason why."""

    cell: ScenarioCell
    reason: str

    def label(self) -> str:
        return f"{self.cell.label()} [skipped: {self.reason}]"


@dataclass
class MatrixReport:
    """Aggregate verdict over a matrix sweep."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    differential_failures: List[str] = field(default_factory=list)
    #: Infeasible cells, each with an explanatory reason (not failures).
    skipped: List[SkippedCell] = field(default_factory=list)

    @property
    def cells_run(self) -> int:
        return len(self.outcomes)

    @property
    def cells_skipped(self) -> int:
        return len(self.skipped)

    @property
    def ok(self) -> bool:
        return not self.differential_failures and all(o.ok for o in self.outcomes)

    def failures(self) -> List[str]:
        out = [
            f"{outcome.cell.label()}: {report.detail}"
            for outcome in self.outcomes
            for report in outcome.violations()
        ]
        out.extend(self.differential_failures)
        return out

    def assert_clean(self) -> None:
        if not self.ok:
            raise InvariantViolation(
                f"{len(self.failures())} scenario-matrix failures:\n  "
                + "\n  ".join(self.failures())
            )


def schedule_feasibility(spec: DeploymentSpec) -> Optional[str]:
    """Why this deployment spec cannot be run meaningfully, or ``None``.

    The one feasibility gate shared by the scenario matrix (skip-with-reason
    cells) and the fuzzer's generator/detector (reject infeasible random
    schedules before they are ever run).  Three families of reasons:

    * **quorum bound** — the schedule's Byzantine count must satisfy the
      protocols' honest-majority assumption ``2f < n`` (the trusted
      baseline only needs one correct node: its control node orders rounds
      on a timer and never waits on faulty leaves);
    * **topology fault bound** — the correct nodes must remain strongly
      connected with every concurrently relay-impaired node set removed.
      This is the per-schedule instantiation of the Lemma A.5 necessary
      condition (``f < k`` on the ring k-cast); adaptive budgets are
      charged against the worst *adversarial* placement;
    * **unconstructible topology** — the spec's topology parameters cannot
      produce a graph at all (an unsatisfiable ``random-kcast`` request,
      or bounded connectivity resampling exhausted);
    * **uncoverable loss** — an *unbounded* wire impairment whose loss rate
      exceeds what the reliable sublayer's retry budget can cover: a hop
      fails outright with probability ``loss**(retries+1)``, and past a
      residual of 0.25 no redundancy argument makes liveness expectable.
      Windowed impairments are never gated — the loss-budget invariant's
      bounded allowance absorbs them.
    """
    n = spec.n
    impairment = spec.impairment
    if impairment is not None and impairment.loss > 0 and math.isinf(impairment.end):
        retries = impairment.max_retries
        residual = impairment.loss ** (retries + 1)
        if residual > 0.25:
            return (
                f"unbounded loss {impairment.loss} with {retries} retries leaves "
                f"residual per-hop failure probability {residual:.3f} > 0.25; "
                f"the retry budget cannot cover it"
            )
    schedule = spec.fault_schedule
    byzantine = schedule.byzantine_nodes() if schedule is not None else ()
    if spec.protocol == "trusted-baseline":
        # Leaves only talk to the trusted control node over the control
        # star (spec.topology is never built); feasibility just needs a
        # correct node left to serve — but the deployment still shares the
        # synchronous ProtocolConfig, whose f < n/2 bound gates the build.
        if len(byzantine) >= n:
            return f"all {n} nodes Byzantine; nothing left to check"
        if 2 * spec.f >= n:
            return (
                f"f={spec.f} faulty leaves cannot be provisioned under the "
                f"shared synchronous config bound f < n/2 (n={n})"
            )
        return None
    if 2 * spec.f >= n:
        worst = schedule.max_byzantine() if schedule is not None else len(byzantine)
        return (
            f"{worst} Byzantine nodes break the honest-majority "
            f"bound 2f < n (f={spec.f}, n={n})"
        )
    try:
        topology = build_topology(spec)
    except (ValueError, RuntimeError) as error:
        return f"topology {spec.topology} cannot be built: {error}"
    if schedule is None:
        return None
    dynamic = schedule.dynamic_budget()
    if dynamic:
        # Adaptive victims are adversarially placed, so the topology
        # must survive *any* budget-sized subset going silent (plus
        # whatever the static atoms impair) — Lemma A.5 quantified
        # over all placements instead of the concrete schedule.
        static_worst = max(
            (len(s) for s in schedule.concurrent_impairment_sets()), default=0
        )
        bound = topology.max_faults_necessary_condition()
        if dynamic + static_worst > bound:
            return (
                f"adaptive budget {dynamic} (+{static_worst} static) exceeds "
                f"the Lemma A.5 bound f <= {bound} on {spec.topology} for "
                f"adversarially placed victims"
            )
    for impaired in schedule.concurrent_impairment_sets():
        if not topology.is_strongly_connected(exclude=impaired):
            bound = topology.max_faults_necessary_condition()
            return (
                f"impaired set {sorted(impaired)} disconnects the correct "
                f"nodes on {spec.topology} (Lemma A.5 necessary condition: "
                f"f <= {bound}, schedule impairs {len(impaired)} at once)"
            )
    return None


class ScenarioMatrix:
    """Enumerates and runs the scenario cross-product with invariant checks."""

    def __init__(
        self,
        protocols: Sequence[str] = PROTOCOLS,
        fault_names: Sequence[str] = DEFAULT_FAULTS,
        media: Sequence[str] = MEDIA,
        topologies: Sequence[str] = ("ring-kcast",),
        workloads: Sequence[str] = DEFAULT_WORKLOADS,
        impairments: Sequence[str] = DEFAULT_IMPAIRMENTS,
        n: int = 5,
        f: int = 1,
        k: int = 2,
        target_height: int = 3,
        block_interval: float = 0.0,
        seed: int = 29,
    ) -> None:
        unknown = [name for name in fault_names if name not in FAULT_LIBRARY]
        if unknown:
            raise SpecError(
                f"unknown fault schedules {unknown}; known: {sorted(FAULT_LIBRARY)}", "faults"
            )
        for name in workloads:
            resolve_workload(name)  # raises SpecError on unknown names
        for name in impairments:
            resolve_impairment(name)  # raises SpecError on unknown names
        self.protocols = tuple(protocols)
        self.fault_names = tuple(fault_names)
        self.media = tuple(media)
        self.topologies = tuple(topologies)
        self.workloads = tuple(workloads)
        self.impairments = tuple(impairments)
        self.n = n
        self.f = f
        self.k = k
        self.target_height = target_height
        #: Virtual time between successive proposals.  0 (the default)
        #: matches the paper's EESMR operating point; adaptive-adversary
        #: cells use a positive interval so the leader's workload spans
        #: virtual time and a mid-run strike actually interrupts it.
        self.block_interval = block_interval
        self.seed = seed

    # ------------------------------------------------------------ enumeration
    def cells(self) -> List[ScenarioCell]:
        """Every cell of the configured cross-product."""
        return [
            ScenarioCell(protocol, fault, medium, topology, workload, impairment)
            for protocol in self.protocols
            for fault in self.fault_names
            for medium in self.media
            for topology in self.topologies
            for workload in self.workloads
            for impairment in self.impairments
        ]

    def build_spec(self, cell: ScenarioCell) -> DeploymentSpec:
        """The deterministic deployment spec for one cell.

        Composed schedules may control more nodes than the matrix-wide
        ``f``; the cell's ``f`` is raised to the schedule's Byzantine count
        so quorum sizes match the adversary actually deployed.
        """
        schedule = FAULT_LIBRARY[cell.fault](self.n)
        f_cell = self.f
        if schedule is not None:
            # max_byzantine counts static targets plus adaptive budgets, so
            # quorum sizes match the worst adversary the schedule may field.
            f_cell = max(f_cell, schedule.max_byzantine())
        return DeploymentSpec(
            protocol=cell.protocol,
            n=self.n,
            f=f_cell,
            k=self.k,
            topology=cell.topology,
            medium=cell.medium,
            target_height=self.target_height,
            block_interval=self.block_interval,
            seed=self.seed,
            fault_schedule=schedule,
            workload=resolve_workload(cell.workload),
            impairment=resolve_impairment(cell.impairment),
        )

    # ---------------------------------------------------------------- running
    def run_cell(self, cell: ScenarioCell, spec: DeploymentSpec) -> CellOutcome:
        """Run one cell's spec (:meth:`build_spec`) and check every
        invariant against its evidence."""
        # Non-preload cells carry SLO metrics; preload cells stay exactly
        # the seed pipeline (no extra observer, no perturbed traces).
        metrics = MetricsObserver() if cell.workload != "preload" else None
        try:
            result, evidence, reports = judge(
                spec,
                label=cell.label(),
                observers=(metrics,) if metrics is not None else (),
            )
        except RUN_FAILURES as error:
            # A mid-run violation fails the cell; it must not end the sweep.
            return CellOutcome(
                cell=cell,
                spec=spec,
                result=None,
                evidence=None,
                reports=[run_failure_report(error, cell.label())],
            )
        outcome = CellOutcome(
            cell=cell, spec=spec, result=result, evidence=evidence, reports=reports
        )
        if metrics is not None:
            outcome.metrics = metrics.summary()
        return outcome

    def run(self, parallel: Optional[int] = None) -> MatrixReport:
        """Run every feasible cell, then apply the differential checks.

        Infeasible (topology, fault) cells — including cells whose
        topology cannot be constructed at all — are recorded on
        ``report.skipped`` with an explanatory reason instead of being run
        and spuriously failed.

        Args:
            parallel: Number of worker processes.  ``None`` reads the
                ``REPRO_MATRIX_PARALLEL`` environment variable (defaulting
                to 1; CI's matrix job sets it to 2, ``bench/`` passes
                ``parallel=1``; a value that is not an integer is a
                :class:`SpecError`); values <= 1 run serially in-process.  Cells are
                independent seeded runs, so sharding them over a
                ``ProcessPoolExecutor`` cannot change any cell's result:
                every worker rebuilds its cell's spec deterministically,
                and results are merged in the fixed enumeration order
                (sorted label order within the report accessors), making a
                parallel report identical to a serial one cell for cell.
                The differential cross-cell checks run in the parent on
                the merged outcomes, unchanged.
        """
        if parallel is None:
            knob = os.environ.get("REPRO_MATRIX_PARALLEL", "1") or "1"
            try:
                parallel = int(knob)
            except ValueError:
                raise SpecError(
                    f"expected a worker count, got {knob!r}", "REPRO_MATRIX_PARALLEL"
                ) from None
        report = MatrixReport()
        runnable: List[Tuple[ScenarioCell, DeploymentSpec]] = []
        for cell in self.cells():
            spec = self.build_spec(cell)
            reason = schedule_feasibility(spec)
            if reason is not None:
                report.skipped.append(SkippedCell(cell, reason))
                continue
            runnable.append((cell, spec))
        if parallel <= 1 or len(runnable) <= 1:
            for cell, spec in runnable:
                report.outcomes.append(self.run_cell(cell, spec))
        else:
            # Only a sharded sweep pays for multiprocessing's import.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(parallel, len(runnable))) as pool:
                # The matrix, cell and pre-built spec travel to the worker by
                # pickle and the CellOutcome — evidence, trace, reports —
                # travels back, so everything they hold must stay picklable
                # (pinned by the parallel-matrix tests).
                futures = [
                    pool.submit(self.run_cell, cell, spec) for cell, spec in runnable
                ]
                # Collect in submission order — deterministic regardless of
                # which worker finishes first.
                report.outcomes.extend(future.result() for future in futures)
        report.differential_failures = self._differential_check(report.outcomes)
        return report

    # ----------------------------------------------------------- differential
    def _differential_check(self, outcomes: List[CellOutcome]) -> List[str]:
        """Same workload ⇒ same committed command sequence across protocols.

        Applied to fault-free closed-loop preload groups only.  Protocols
        recover from faults along different paths (dropping different
        in-flight blocks), so faulty cells are out.  The premise also needs
        every protocol to hold the whole stream before its first proposal,
        which only the preload gives.  Under an arrival-driven workload what
        a protocol commits depends on where its proposals fall among the
        arrivals: an EESMR leader's back-to-back proposals can run ahead of
        them and order empty blocks, and impairment shifts those timings
        per protocol.  Different logs there are not a fault.  A cell whose
        run raised has no log to compare; its own report already fails.
        """
        failures: List[str] = []
        groups: Dict[Tuple[str, str, str, str, str], List[CellOutcome]] = {}
        for outcome in outcomes:
            workload = outcome.spec.workload
            preloaded = workload is None or isinstance(workload, ClosedLoopPreload)
            if outcome.cell.fault != "none" or not preloaded or outcome.evidence is None:
                continue
            key = (
                outcome.cell.fault,
                outcome.cell.medium,
                outcome.cell.topology,
                outcome.cell.workload,
                outcome.cell.impairment,
            )
            groups.setdefault(key, []).append(outcome)
        for key, group in sorted(groups.items()):
            reference: Optional[Tuple[CellOutcome, List[str]]] = None
            for outcome in group:
                correct = outcome.evidence.correct_nodes
                if not correct:
                    continue
                sequence = outcome.evidence.trace.committed_commands[correct[0]]
                if reference is None:
                    reference = (outcome, sequence)
                    continue
                ref_outcome, ref_sequence = reference
                if sequence != ref_sequence:
                    failures.append(
                        f"differential: {outcome.cell.label()} committed {sequence} "
                        f"but {ref_outcome.cell.label()} committed {ref_sequence}"
                    )
        return failures
