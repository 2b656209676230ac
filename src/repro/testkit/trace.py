"""Structured per-run traces for determinism and invariant checking.

A :class:`TraceRecorder` taps three substrates of a run:

* the simulator's event trace (``Simulator.trace_log`` — every executed
  event as ``(time, label)``);
* the network and energy ledgers (per-node counters and per-category
  Joule breakdowns);
* the replicas themselves at collection time (committed chains, committed
  command sequences, quorum certificates, protocol statistics).

The captured :class:`RunTrace` is a plain, JSON-serialisable value object
with a canonical encoding, so two runs can be compared *byte for byte* —
the determinism regression the scenario matrix (and every future
performance PR) relies on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.messages import MessageType, QuorumCertificate, verify_qc, verify_view_qc
from repro.session.observers import SessionObserver


@dataclass
class QCRecord:
    """A harvested quorum certificate, pre-verified at capture time."""

    holder: int
    cert_type: str
    view: int
    signers: List[int]
    n_signatures: int
    block_hash: Optional[str]
    block_height: Optional[int]
    valid: bool

    def to_dict(self) -> dict:
        return {
            "holder": self.holder,
            "cert_type": self.cert_type,
            "view": self.view,
            "signers": list(self.signers),
            "n_signatures": self.n_signatures,
            "block_hash": self.block_hash,
            "block_height": self.block_height,
            "valid": self.valid,
        }


@dataclass
class RunTrace:
    """Everything observable about one deterministic run."""

    spec: Dict[str, Any]
    events: List[List[Any]] = field(default_factory=list)
    executed_events: int = 0
    sim_time: float = 0.0
    committed_commands: Dict[int, List[str]] = field(default_factory=dict)
    committed_chain: Dict[int, List[List[Any]]] = field(default_factory=dict)
    committed_heights: Dict[int, int] = field(default_factory=dict)
    energy_per_node_j: Dict[int, float] = field(default_factory=dict)
    energy_breakdown_j: Dict[str, float] = field(default_factory=dict)
    energy_total_j: float = 0.0
    network: Dict[str, Any] = field(default_factory=dict)
    qcs: List[QCRecord] = field(default_factory=list)
    replica_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    safety: Dict[str, Any] = field(default_factory=dict)

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """A plain-dict view with stringified keys (JSON-safe)."""
        return {
            "spec": self.spec,
            "events": self.events,
            "executed_events": self.executed_events,
            "sim_time": self.sim_time,
            "committed_commands": {str(k): v for k, v in self.committed_commands.items()},
            "committed_chain": {str(k): v for k, v in self.committed_chain.items()},
            "committed_heights": {str(k): v for k, v in self.committed_heights.items()},
            "energy_per_node_j": {str(k): v for k, v in self.energy_per_node_j.items()},
            "energy_breakdown_j": self.energy_breakdown_j,
            "energy_total_j": self.energy_total_j,
            "network": self.network,
            "qcs": [qc.to_dict() for qc in self.qcs],
            "replica_stats": {str(k): v for k, v in self.replica_stats.items()},
            "safety": self.safety,
        }

    def canonical_json(self) -> str:
        """The canonical encoding: sorted keys, minimal separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """SHA-256 of the canonical encoding — equal iff traces are identical."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def spec_fingerprint(spec) -> Dict[str, Any]:
    """A canonical description of a :class:`DeploymentSpec` (faults included)."""
    faults: Any
    if spec.fault_schedule is not None:
        faults = spec.fault_schedule.describe()
    else:
        plan = spec.fault_plan
        faults = {
            "faulty": list(plan.faulty),
            "behaviour": plan.behaviour,
            "trigger_round": plan.trigger_round,
            "crash_time": plan.crash_time,
        }
    out = {
        "protocol": spec.protocol,
        "n": spec.n,
        "f": spec.f,
        "k": spec.k,
        "topology": spec.topology,
        "medium": spec.medium,
        "hop_delay": spec.hop_delay,
        "delta": spec.delta,
        "signature_scheme": spec.signature_scheme,
        "batch_size": spec.batch_size,
        "command_payload_bytes": spec.command_payload_bytes,
        "target_height": spec.target_height,
        "block_interval": spec.block_interval,
        "seed": spec.seed,
        "jitter": spec.jitter,
        "faults": faults,
    }
    if spec.topology == "random-kcast":
        # Only parameterised topologies carry their extra knobs, so the
        # fingerprints of pre-existing specs stay byte-identical.
        out["edges_per_node"] = spec.edges_per_node
        out["topology_seed"] = spec.topology_seed
    # Same conditional-key rule for the workload layer: a default
    # closed-loop preload and an unbounded pool are the seed behaviour and
    # stay invisible, so every pre-existing fingerprint survives.
    if spec.workload is not None and not spec.workload.is_default():
        out["workload"] = spec.workload.describe()
    if spec.txpool_limit is not None:
        out["txpool_limit"] = spec.txpool_limit
    # Wire impairments follow the same rule: absent (the seed medium) means
    # absent from the fingerprint, so unimpaired specs hash identically.
    if spec.impairment is not None:
        out["impairment"] = spec.impairment.describe()
    return out


class TraceRecorder(SessionObserver):
    """Captures a :class:`RunTrace` from a session-driven run.

    A :class:`~repro.session.observers.SessionObserver`: registered on a
    session (or passed as ``recorder=`` to a ``SessionBuilder`` /
    :func:`repro.eval.runner.run_protocol`), it enables event tracing at
    session start and stores the harvested trace on the
    :class:`~repro.eval.runner.RunResult` at session end — the same
    plumbing every other observer uses.

    Args:
        record_events: Keep the full simulator event trace.  Byte-identical
            determinism checks need it; a caller that only wants the
            structured summary can switch it off to save memory.
    """

    def __init__(self, record_events: bool = True) -> None:
        self.record_events = record_events
        self._sim = None

    # -------------------------------------------------------- observer hooks
    def on_session_start(self, session) -> None:
        self.attach(session.sim)

    def on_session_end(self, session, result) -> None:
        result.trace = self.capture(
            session.spec,
            session.config,
            session.sim,
            session.ledger,
            session.network,
            session.scheme,
            session.replicas,
            result.safety,
        )

    # ------------------------------------------------------------ low level
    def attach(self, sim) -> None:
        """Enable event tracing on the simulator about to run."""
        self._sim = sim
        if self.record_events:
            sim.trace_enabled = True

    def capture(self, spec, config, sim, ledger, network, scheme, replicas, safety) -> RunTrace:
        """Harvest the structured trace from a finished deployment."""
        trace = RunTrace(spec=spec_fingerprint(spec))
        if self.record_events:
            trace.events = [[time, label] for time, label in sim.trace_log]
        trace.executed_events = sim.executed_events
        trace.sim_time = sim.now
        imp = network.impairment

        for pid, replica in sorted(replicas.items()):
            log = replica.log
            trace.committed_commands[pid] = log.committed_command_ids()
            trace.committed_chain[pid] = [
                [block.height, block.block_hash] for block in log.committed_blocks()
            ]
            trace.committed_heights[pid] = log.highest_height
            stats = replica.stats
            trace.replica_stats[pid] = {
                "proposals_made": stats.proposals_made,
                "proposals_received": stats.proposals_received,
                "blocks_committed": stats.blocks_committed,
                "blames_sent": stats.blames_sent,
                "equivocations_detected": stats.equivocations_detected,
                "view_changes_completed": stats.view_changes_completed,
                "votes_sent": stats.votes_sent,
                "certificates_formed": stats.certificates_formed,
            }
            # Admission accounting appears only when something was actually
            # rejected, so seed-behaviour traces keep their exact key set
            # (and therefore their golden fingerprints).
            pool = replica.txpool
            if pool.dropped:
                trace.replica_stats[pid]["commands_dropped"] = pool.dropped
            if pool.duplicates:
                trace.replica_stats[pid]["commands_duplicate"] = pool.duplicates
            # Delivery accounting likewise appears only on nodes the lossy
            # medium actually touched — unimpaired runs keep their key set.
            if imp is not None:
                if imp.drops_by_node.get(pid):
                    trace.replica_stats[pid]["deliveries_dropped"] = imp.drops_by_node[pid]
                if imp.retransmits_by_node.get(pid):
                    trace.replica_stats[pid]["deliveries_retransmitted"] = (
                        imp.retransmits_by_node[pid]
                    )
                if imp.giveups_by_node.get(pid):
                    trace.replica_stats[pid]["delivery_giveups"] = imp.giveups_by_node[pid]
            for qc in _harvest_qcs(replica):
                trace.qcs.append(_record_qc(pid, qc, scheme, config))

        trace.energy_per_node_j = {
            pid: meter.total_joules for pid, meter in sorted(ledger.meters.items())
        }
        trace.energy_breakdown_j = ledger.combined_breakdown().as_dict()
        trace.energy_total_j = ledger.total_joules()

        stats = network.stats
        trace.network = {
            "broadcasts": stats.broadcasts,
            "unicasts": stats.unicasts,
            "physical_transmissions": stats.physical_transmissions,
            "physical_bytes": stats.physical_bytes,
            "deliveries": stats.deliveries,
            "per_node_transmissions": {
                str(k): v for k, v in sorted(stats.per_node_transmissions.items())
            },
            "per_node_bytes": {str(k): v for k, v in sorted(stats.per_node_bytes.items())},
        }
        # The impairment block exists only when an impairment model was ever
        # attached, keeping unimpaired network sections byte-identical.
        if imp is not None:
            trace.network["impairments"] = imp.stats_dict()
        trace.safety = {
            "consistent": safety.consistent,
            "common_prefix_height": safety.common_prefix_height,
            "max_height": safety.max_height,
            "details": list(safety.details),
        }
        return trace


def _harvest_qcs(replica) -> List[QuorumCertificate]:
    """Every quorum certificate a replica holds, across protocol families."""
    qcs: List[QuorumCertificate] = []
    # EESMR view-change certificates.
    for qc in getattr(replica, "own_commit_qc", {}).values():
        qcs.append(qc)
    qcs.extend(getattr(replica, "collected_commit_qcs", ()))
    best = getattr(replica, "best_commit_qc", None)
    if best is not None:
        qcs.append(best)
    # Sync HotStuff / OptSync vote certificates.
    for qc in getattr(replica, "certs", {}).values():
        qcs.append(qc)
    return qcs


def _record_qc(holder: int, qc: QuorumCertificate, scheme, config) -> QCRecord:
    """Verify and record one certificate (verification energy is not charged:
    this is the auditor looking at the run, not a node in it)."""
    if qc.cert_type == MessageType.BLAME:
        valid = verify_view_qc(scheme, holder, qc, config.quorum)
    else:
        valid = verify_qc(scheme, holder, qc, config.quorum)
    return QCRecord(
        holder=holder,
        cert_type=qc.cert_type.value,
        view=qc.view,
        signers=sorted(qc.signers),
        n_signatures=len(qc.signatures),
        block_hash=qc.block.block_hash if qc.block is not None else None,
        block_height=qc.block.height if qc.block is not None else None,
        valid=valid,
    )
