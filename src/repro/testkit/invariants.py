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
* **energy conservation** — no operation count or unit cost is negative,
  and every per-node and correct-node Joule figure of the report is the
  trace's operation counts priced, exactly.

Invariants consume :class:`Evidence` — a bundle of the deployment spec,
the collected :class:`~repro.session.spec.RunResult` and the structured
:class:`~repro.testkit.trace.RunTrace` — and raise
:class:`InvariantViolation` with a cell-identifying message on failure.

:func:`check_all` maps the battery over one run's evidence;
:func:`repro.testkit.scenarios.judge` is the one function that runs a
spec to get it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.energy.meter import price


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

        Window-scoped: a node is excused while one of its atoms'
        ``exemption_end()`` is after the run's end — forever for
        Byzantine behaviours, never for relay-drop, duplicate and jitter
        windows (the node still receives and commits), until
        ``heal + CATCH_UP_GRACE`` for partitions and crash-recover windows
        and until its loss-scaled allowance for a loss window.  A run that
        outlived the allowance holds the node to the full target height —
        catch-up is a checked obligation, not a permanent pardon.  See
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


#: The per-node delivery accounting a liveness stall is attributed with.
_DELIVERY_COUNTERS = ("deliveries_dropped", "deliveries_retransmitted", "delivery_giveups")


class LivenessInvariant(Invariant):
    """Every correct, unperturbed node reaches the target height.

    Degraded windows are understood per fault class: a node whose only
    perturbation is a relay-drop window keeps receiving floods and voting,
    so it is still held to the full target height (even when the window
    overlaps a Byzantine fault elsewhere and recovery runs through it); a
    partitioned node may miss blocks it cannot recover, so it is exempt
    from the height expectation — but it remains *correct*: everything it
    committed must come from the workload, and agreement still binds it.

    A stall names the node's nonzero delivery counters (drops,
    retransmissions, give-ups), so a retry budget that silently gives up
    reads differently from a protocol that never proposed.
    """

    name = "liveness"

    def check(self, evidence: Evidence) -> None:
        expected = evidence.spec.target_height
        for pid in evidence.live_nodes:
            height = evidence.trace.committed_heights[pid]
            if height < expected:
                stats = evidence.trace.replica_stats.get(pid, {})
                counts = ", ".join(
                    f"{key}={stats[key]}" for key in _DELIVERY_COUNTERS if stats.get(key)
                )
                self.fail(
                    evidence,
                    f"node {pid} stalled at height {height} < target {expected}"
                    + (f" ({counts})" if counts else ""),
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
    """Every certificate a node holds verifies against its holder's quorum for its type.

    The trace verified each one at capture (``QCRecord.valid``) by the rule
    the holder adopts certificates by, ``certificate_quorum(cert_type)``,
    which is never below f+1.
    """

    name = "quorum-certificates"

    def check(self, evidence: Evidence) -> None:
        for qc in evidence.trace.qcs:
            if not qc.valid:
                self.fail(
                    evidence,
                    f"node {qc.holder} holds an invalid {qc.cert_type} QC "
                    f"for view {qc.view}",
                )


class EnergyConservationInvariant(Invariant):
    """The report's Joules are the trace's operation counts, priced exactly."""

    name = "energy-conservation"

    def check(self, evidence: Evidence) -> None:
        counts = {}
        for pid, entries in evidence.trace.energy_counts.items():
            if any(unit_j < 0 or times < 0 for _, unit_j, times in entries):
                self.fail(evidence, f"node {pid} has a negative count or unit cost: {entries}")
            counts[pid] = {(category, unit_j): times for category, unit_j, times in entries}
        report = evidence.result.energy
        excluded = evidence.byzantine | _energy_excluded(evidence)
        correct = sum(price(c for pid, c in counts.items() if pid not in excluded).values())
        if report.correct_total_joules != correct:
            self.fail(evidence, f"correct-node total {report.correct_total_joules} J != {correct} J")
        for pid, node_counts in counts.items():
            joules = report.per_node_joules.get(pid)
            if joules != sum(price((node_counts,)).values()):
                self.fail(evidence, f"node {pid} reports {joules} J, not its counts priced")


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
    EnergyConservationInvariant(),
)


def check_all(evidence: Evidence) -> List[InvariantReport]:
    """Check the standard battery, returning one report per invariant."""
    return [invariant.run(evidence) for invariant in DEFAULT_INVARIANTS]
