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

import dataclasses
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
        # Per fingerprint, per certificate: a shallow copy, not ``asdict``'s deep one.
        return dict(vars(self))


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
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = {str(k): v for k, v in value.items()}
            out[f.name] = value
        out["qcs"] = [qc.to_dict() for qc in self.qcs]
        return out

    def canonical_json(self) -> str:
        """The canonical encoding: sorted keys, minimal separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """SHA-256 of the canonical encoding — equal iff traces are identical."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


#: A fault-free spec's ``faults``: the empty ``FaultPlan`` section specs had
#: before the plan became constructor shorthand.  Every fault-free
#: fingerprint, the golden traces among them, hashes it, so it stays.
NO_FAULTS = {"behaviour": "crash", "crash_time": 0.0, "faulty": [], "trigger_round": 3}


def spec_fingerprint(spec) -> Dict[str, Any]:
    """A canonical description of a :class:`DeploymentSpec`: ``to_dict()``
    under omit rules that keep the fingerprints of specs predating a field
    byte-identical — whatever is still the seed behaviour stays invisible."""
    out = spec.to_dict()
    schedule = out.pop("fault_schedule")
    out["faults"] = dict(NO_FAULTS) if schedule is None else schedule
    if spec.topology != "random-kcast":
        # Only the parameterised topology carries its extra knobs.
        del out["edges_per_node"], out["topology_seed"]
    if spec.workload is None or spec.workload.is_default():
        del out["workload"]
    for key in ("txpool_limit", "impairment"):
        if out[key] is None:
            del out[key]
    return out


class TraceRecorder(SessionObserver):
    """Captures a :class:`RunTrace` from a session-driven run.

    A :class:`~repro.session.observers.SessionObserver`: registered on a
    session (or passed as ``recorder=`` to a ``SessionBuilder`` /
    :func:`repro.session.builder.run_protocol`), it enables event tracing at
    session start and stores the harvested trace on the
    :class:`~repro.session.spec.RunResult` at session end — the same
    plumbing every other observer uses.  The trace always keeps the full
    simulator event log: byte-identical determinism checks need it.
    """

    # -------------------------------------------------------- observer hooks
    def on_session_start(self, session) -> None:
        session.sim.trace_enabled = True

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
    def capture(self, spec, config, sim, ledger, network, scheme, replicas, safety) -> RunTrace:
        """Harvest the structured trace from a finished deployment."""
        trace = RunTrace(spec=spec_fingerprint(spec))
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
            trace.replica_stats[pid] = dict(vars(replica.stats))
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
        trace.safety = dict(vars(safety), details=list(safety.details))
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
