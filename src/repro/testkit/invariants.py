"""Composable cross-protocol invariants checked against run evidence.

Every scenario cell — a (protocol, fault schedule, medium, topology)
combination — must satisfy the same invariants, regardless of which
protocol produced the run:

* **agreement** — no fork: any two correct nodes that committed a block at
  the same height committed the same block, and the committed command
  sequences of correct nodes are prefix-compatible;
* **liveness** — under synchrony every correct, unperturbed node reaches
  the workload's target height, and everything committed came from the
  workload;
* **unique commit** — no correct node's committed log orders a command
  id twice: a slot is worth its energy only if it orders new work;
* **quorum certificates** — every certificate any node holds carries at
  least f+1 distinct valid signatures;
* **monotone virtual time** — the simulator's event trace never goes
  backwards and ends at the reported quiescence time;
* **energy conservation** — per-node meter totals sum to the cluster
  ledger totals, category breakdowns are complete, and no meter is
  negative.

Invariants consume :class:`Evidence` — a bundle of the deployment spec,
the collected :class:`~repro.session.spec.RunResult` and the structured
:class:`~repro.testkit.trace.RunTrace` — and raise
:class:`InvariantViolation` with a cell-identifying message on failure.

:func:`judge` is the one run-and-check function: the scenario matrix, the
fuzz detector and the corpus replay all run a spec under a
:class:`~repro.testkit.trace.TraceRecorder` and map the battery over its
evidence through it (:func:`judge_reports` and the matrix's cells, the
callers that must survive a run that crashes, map a mid-run violation
through :func:`run_failure_report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

from repro.core.ledger import SafetyViolation
from repro.session.builder import SessionBuilder
from repro.sim.scheduler import SimulationError
from repro.testkit.trace import TraceRecorder


class InvariantViolation(AssertionError):
    """An invariant did not hold for a run."""


@dataclass
class Evidence:
    """Everything an invariant may inspect about one run."""

    spec: object
    result: object
    trace: object
    #: Human-readable cell label used in violation messages.
    label: str = ""

    @property
    def byzantine(self) -> set:
        return set(self.spec.byzantine_nodes)

    @property
    def perturbed(self) -> set:
        """Nodes excluded from liveness expectations (Byzantine + degraded).

        Degraded-window aware *and window-scoped*: the schedule
        distinguishes exempting faults (Byzantine behaviours — the node
        may never catch up) from non-exempting ones (relay-drop windows —
        the node still receives and commits), and for recovering faults
        (partitions, crash-recover windows) the exemption *expires* at
        ``heal + CATCH_UP_GRACE``.  A run that outlived the grace window
        holds the healed node to the full target height — catch-up is a
        checked obligation, not a permanent pardon.  See
        :meth:`~repro.testkit.faults.FaultSchedule.liveness_exempt_nodes`.
        """
        nodes = set(self.byzantine)
        schedule = self.spec.fault_schedule
        if schedule is not None:
            nodes |= set(schedule.liveness_exempt_nodes(end_time=self.trace.sim_time))
        return nodes

    @property
    def correct_nodes(self) -> List[int]:
        return [pid for pid in sorted(self.trace.committed_heights) if pid not in self.byzantine]

    @property
    def live_nodes(self) -> List[int]:
        perturbed = self.perturbed
        return [pid for pid in sorted(self.trace.committed_heights) if pid not in perturbed]

    def where(self) -> str:
        return self.label or f"{self.spec.protocol}/{self.spec.medium}/{self.spec.topology}"


@dataclass
class InvariantReport:
    """Outcome of checking one invariant against one run."""

    name: str
    ok: bool
    detail: str = ""


class Invariant:
    """Base class: subclasses implement :meth:`check`."""

    name = "invariant"

    def check(self, evidence: Evidence) -> None:
        raise NotImplementedError

    def run(self, evidence: Evidence) -> InvariantReport:
        """Check and fold the outcome into a report instead of raising."""
        try:
            self.check(evidence)
        except InvariantViolation as violation:
            return InvariantReport(self.name, False, str(violation))
        return InvariantReport(self.name, True)

    def fail(self, evidence: Evidence, message: str) -> None:
        raise InvariantViolation(f"[{self.name} @ {evidence.where()}] {message}")


class AgreementInvariant(Invariant):
    """No-fork safety (Definition 2.1) recomputed from the trace."""

    name = "agreement"

    def check(self, evidence: Evidence) -> None:
        if not evidence.trace.safety.get("consistent", False):
            details = "; ".join(evidence.trace.safety.get("details", ()))
            self.fail(evidence, f"safety checker reported a fork: {details}")
        # Independent recomputation from the committed chains in the trace.
        chains = {
            pid: dict(map(tuple, evidence.trace.committed_chain[pid]))
            for pid in evidence.correct_nodes
        }
        heights = sorted({h for chain in chains.values() for h in chain})
        for height in heights:
            blocks = {
                pid: chain[height] for pid, chain in chains.items() if height in chain
            }
            if len(set(blocks.values())) > 1:
                self.fail(
                    evidence,
                    f"conflicting commits at height {height}: "
                    + ", ".join(f"{pid}:{h[:8]}" for pid, h in sorted(blocks.items())),
                )
        # The linearizable logs must be prefix-compatible across correct nodes.
        sequences = [
            evidence.trace.committed_commands[pid] for pid in evidence.correct_nodes
        ]
        for i, a in enumerate(sequences):
            for b in sequences[i + 1 :]:
                shared = min(len(a), len(b))
                if a[:shared] != b[:shared]:
                    self.fail(
                        evidence,
                        f"committed command logs diverge within the first {shared} entries",
                    )


class LivenessInvariant(Invariant):
    """Every correct, unperturbed node reaches the target height.

    Degraded windows are understood per fault class: a node whose only
    perturbation is a relay-drop window keeps receiving floods and voting,
    so it is still held to the full target height (even when the window
    overlaps a Byzantine fault elsewhere and recovery runs through it); a
    partitioned node may miss blocks it cannot recover, so it is exempt
    from the height expectation — but it remains *correct*: everything it
    committed must come from the workload, and agreement still binds it.
    """

    name = "liveness"

    def check(self, evidence: Evidence) -> None:
        expected = evidence.spec.target_height
        for pid in evidence.live_nodes:
            height = evidence.trace.committed_heights[pid]
            if height < expected:
                self.fail(
                    evidence,
                    f"node {pid} stalled at height {height} < target {expected}",
                )
        workload = _workload_command_ids(evidence.spec)
        for pid in evidence.correct_nodes:
            unknown = [
                cid for cid in evidence.trace.committed_commands[pid] if cid not in workload
            ]
            if unknown:
                self.fail(
                    evidence,
                    f"node {pid} committed commands outside the workload: {unknown[:3]}",
                )


class UniqueCommitInvariant(Invariant):
    """No command id appears twice in any correct node's committed log."""

    name = "unique-commit"

    def check(self, evidence: Evidence) -> None:
        for pid in evidence.correct_nodes:
            seen: set = set()
            for cid in evidence.trace.committed_commands[pid]:
                if cid in seen:
                    self.fail(evidence, f"node {pid} committed command {cid!r} twice")
                seen.add(cid)


class QuorumCertificateInvariant(Invariant):
    """Every harvested certificate is valid and meets the f+1 quorum."""

    name = "quorum-certificates"

    def check(self, evidence: Evidence) -> None:
        quorum = evidence.spec.f + 1
        for qc in evidence.trace.qcs:
            if len(set(qc.signers)) < quorum:
                self.fail(
                    evidence,
                    f"node {qc.holder} holds a {qc.cert_type} QC with only "
                    f"{len(set(qc.signers))} distinct signers (quorum {quorum})",
                )
            if not qc.valid:
                self.fail(
                    evidence,
                    f"node {qc.holder} holds an invalid {qc.cert_type} QC "
                    f"for view {qc.view}",
                )


class MonotoneVirtualTimeInvariant(Invariant):
    """The discrete-event trace is causally ordered.

    An audit of the recorded event log after the fact; the property is
    also enforced at runtime, because the scheduler raises
    :class:`~repro.sim.scheduler.SimulationError` the moment an event
    would execute in the past.
    """

    name = "monotone-time"

    def check(self, evidence: Evidence) -> None:
        previous = 0.0
        for time, label in evidence.trace.events:
            if time < previous:
                self.fail(
                    evidence,
                    f"event {label!r} at t={time} after t={previous} (time went backwards)",
                )
            previous = time
        if evidence.trace.sim_time + 1e-12 < previous:
            self.fail(
                evidence,
                f"quiescence time {evidence.trace.sim_time} precedes the last "
                f"event at {previous}",
            )


class EnergyConservationInvariant(Invariant):
    """Meter totals, ledger totals and report aggregates agree."""

    name = "energy-conservation"

    def check(self, evidence: Evidence) -> None:
        per_node = evidence.trace.energy_per_node_j
        for pid, joules in per_node.items():
            if joules < 0:
                self.fail(evidence, f"node {pid} has a negative meter: {joules} J")
        total = sum(per_node.values())
        if not math.isclose(total, evidence.trace.energy_total_j, rel_tol=1e-9, abs_tol=1e-12):
            self.fail(
                evidence,
                f"per-node meters sum to {total} J but the cluster ledger "
                f"reports {evidence.trace.energy_total_j} J",
            )
        breakdown_total = sum(evidence.trace.energy_breakdown_j.values())
        if not math.isclose(breakdown_total, total, rel_tol=1e-9, abs_tol=1e-12):
            self.fail(
                evidence,
                f"category breakdown sums to {breakdown_total} J, meters to {total} J",
            )
        report = evidence.result.energy
        if not math.isclose(
            sum(report.per_node_joules.values()), report.total_joules, rel_tol=1e-9, abs_tol=1e-12
        ):
            self.fail(evidence, "EnergyReport total disagrees with its own per-node map")
        expected_correct = sum(
            joules
            for pid, joules in report.per_node_joules.items()
            if pid not in evidence.byzantine and pid not in _energy_excluded(evidence)
        )
        if not math.isclose(
            report.correct_total_joules, expected_correct, rel_tol=1e-9, abs_tol=1e-12
        ):
            self.fail(
                evidence,
                f"correct-node total {report.correct_total_joules} J != "
                f"sum over correct meters {expected_correct} J",
            )


class LossBudgetLivenessInvariant(Invariant):
    """Degraded delivery buys a bounded allowance, not a pardon.

    A node behind a lossy window (a :class:`~repro.testkit.faults.LossWindow`
    atom, or a spec-level wire impairment) may legitimately lag while drops
    and retransmissions play out — but the reliable sublayer's retry chains
    bound how long: once the window's *loss-budget allowance* (its
    ``exemption_end``, i.e. window close plus a loss-scaled grace) has
    passed, the node is held to the full target height, exactly like the
    post-heal obligation on partitions.  Failure messages attribute the
    stall with the run's delivery accounting (drops, retransmits, give-ups),
    so a retry budget that silently gives up is distinguishable from a
    genuinely infeasible loss rate.

    A run with no lossy medium attached is vacuously fine — the plain
    :class:`LivenessInvariant` governs it and this check is a no-op.
    """

    name = "loss-budget-liveness"

    def check(self, evidence: Evidence) -> None:
        from repro.testkit.faults import loss_allowance_end

        schedule = evidence.spec.fault_schedule
        atoms = schedule.faults if schedule is not None else ()
        loss_atoms = [f for f in atoms if getattr(f, "impairment_kind", "") == "loss"]
        spec_impairment = evidence.spec.impairment
        spec_loss = spec_impairment is not None and (
            spec_impairment.loss > 0 or spec_impairment.ble_calibrated
        )
        if not loss_atoms and not spec_loss:
            return
        sim_time = evidence.trace.sim_time
        target = evidence.spec.target_height
        # Per-node allowance: the latest loss-budget expiry of any loss
        # window covering the node.  A spec-level impairment exposes every
        # node; an unbounded one gives no allowance at all — the reliable
        # sublayer is expected to sustain liveness *through* permanent
        # moderate loss (the calibrated BLE operating point).
        allowance: dict = {}
        for fault in loss_atoms:
            for node in fault.nodes():
                allowance[node] = max(allowance.get(node, 0.0), fault.exemption_end())
        if spec_loss:
            if math.isinf(spec_impairment.end):
                spec_allowance = 0.0
            else:
                spec_allowance = loss_allowance_end(spec_impairment.end, spec_impairment.loss)
            for node in evidence.trace.committed_heights:
                allowance[node] = max(allowance.get(node, 0.0), spec_allowance)
        # Nodes excused by *other* still-unexpired exempting faults (e.g. a
        # partition inside its heal grace) keep their excuse here too.
        excused = set(evidence.byzantine)
        for fault in atoms:
            if getattr(fault, "impairment_kind", "") == "loss":
                continue
            if not fault.liveness_exempt:
                continue
            if fault.exemption_end() <= sim_time:
                continue
            excused.update(fault.nodes())
        impairments = evidence.trace.network.get("impairments", {})
        for node in sorted(allowance):
            if node in excused or node not in evidence.trace.committed_heights:
                continue
            if sim_time <= allowance[node]:
                continue  # the run ended inside the loss-budget allowance
            height = evidence.trace.committed_heights[node]
            if height < target:
                stats = evidence.trace.replica_stats.get(node, {})
                self.fail(
                    evidence,
                    f"node {node} stalled at height {height} < target {target} "
                    f"after its loss-budget allowance expired at "
                    f"t={allowance[node]:.3f} (run ended t={sim_time:.3f}; "
                    f"node drops={stats.get('deliveries_dropped', 0)} "
                    f"retransmits={stats.get('deliveries_retransmitted', 0)} "
                    f"giveups={stats.get('delivery_giveups', 0)}; "
                    f"run drops={impairments.get('dropped', 0)} "
                    f"retransmits={impairments.get('retransmits', 0)} "
                    f"giveups={impairments.get('giveups', 0)})",
                )


def _energy_excluded(evidence: Evidence) -> set:
    """Nodes excluded from correct-energy totals besides Byzantine ones."""
    if evidence.spec.protocol == "trusted-baseline":
        # The LTE control node is infrastructure, not a replica.
        return {evidence.spec.n}
    return set()


def _workload_command_ids(spec) -> set:
    """The command ids the spec's deterministic workload produced.

    Engine-aware: open-loop and trace workloads regenerate their arrival
    stream as a pure function of the spec, so "everything committed came
    from the workload" holds for them exactly as for preloads.
    """
    from repro.workload import workload_command_ids

    return workload_command_ids(spec)


#: The standard battery every scenario cell is checked against.
DEFAULT_INVARIANTS: tuple = (
    AgreementInvariant(),
    LivenessInvariant(),
    UniqueCommitInvariant(),
    QuorumCertificateInvariant(),
    MonotoneVirtualTimeInvariant(),
    EnergyConservationInvariant(),
    LossBudgetLivenessInvariant(),
)


def check_all(evidence: Evidence) -> List[InvariantReport]:
    """Check the standard battery, returning one report per invariant."""
    return [invariant.run(evidence) for invariant in DEFAULT_INVARIANTS]


def judge(
    spec,
    *,
    label: str,
    builder: Callable[..., SessionBuilder] = SessionBuilder,
    observers: Sequence = (),
) -> Tuple[Any, Evidence, List[InvariantReport]]:
    """Run ``spec`` to quiescence under a :class:`TraceRecorder` and check
    the standard battery against its evidence: ``(result, evidence, reports)``.

    ``builder`` is the session-builder class (or factory) to build with —
    the seam the fuzzer's planted mutants substitute.  An exception raised
    by the run itself propagates; see :func:`judge_reports`.
    """
    session = builder(spec, observers=observers, recorder=TraceRecorder()).build()
    result = session.run_to_quiescence().finish()
    evidence = Evidence(spec=spec, result=result, trace=result.trace, label=label)
    return result, evidence, check_all(evidence)


#: What a run raises when a planted (or real) bug crashes the run itself.
RUN_FAILURES = (SafetyViolation, SimulationError)


def run_failure_report(error: Exception, label: str) -> InvariantReport:
    """The one failing report for a run that raised one of :data:`RUN_FAILURES`.

    A replica refusing to commit over its own log mid-run
    (:class:`SafetyViolation`) *is* an agreement failure, observed earlier
    than the post-run checker would see it; a livelock tripping the event
    budget (:class:`SimulationError`) is reported against a synthetic
    ``no-livelock`` invariant.
    """
    name = "agreement" if isinstance(error, SafetyViolation) else "no-livelock"
    return InvariantReport(name, False, f"[{name} @ {label}] {error}")


def judge_reports(spec, *, label: str, **judge_kwargs) -> List[InvariantReport]:
    """:func:`judge`'s reports, for callers that must not die on a finding:
    a run that raises returns its :func:`run_failure_report` instead."""
    try:
        return judge(spec, label=label, **judge_kwargs)[2]
    except RUN_FAILURES as error:
        return [run_failure_report(error, label)]
