"""The deployment description, its result, and the one-call way to run it.

:class:`DeploymentSpec` is the reproduction's equivalent of the paper's
test-bed configuration: everything needed to reproduce one protocol run,
serialisable through :meth:`~DeploymentSpec.to_dict`.  :class:`RunResult`
holds the metrics a finished run collected.  Running a spec goes through
one door — :class:`~repro.session.builder.SessionBuilder` /
:meth:`Session.from_spec <repro.session.session.Session.from_spec>` —
and :func:`run_protocol` is sugar for the common case: build, run to
quiescence, collect.  Callers that need mid-run control (stepping,
pause/inspect/resume, adaptive faults) keep the session instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.adversary import FaultPlan, plan_from_dict
from repro.core.config import ProtocolConfig
from repro.core.ledger import SafetyReport
from repro.crypto import available_schemes
from repro.energy.ledger import EnergyReport
from repro.net.impairment import SpecError, check_fields, from_fields, impairment_from_dict
from repro.net.network import NetworkStats

#: Names accepted by DeploymentSpec.protocol.
PROTOCOLS = ("eesmr", "sync-hotstuff", "optsync", "trusted-baseline")

#: Names accepted by DeploymentSpec.medium.  ``"ble"`` is the paper's test
#: bed (reliable advertisement k-casts + GATT unicasts); the others price
#: every transmission with the corresponding Table 1 medium model.
MEDIA = ("ble", "wifi", "4g-lte")

#: Names accepted by DeploymentSpec.topology.
TOPOLOGIES = ("ring-kcast", "fully-connected", "unicast-ring", "star", "random-kcast")


# Imported on first use: ``eval`` stays importable without these two layers.
def _schedule_from_dict(data: Any) -> Any:
    from repro.testkit.faults import schedule_from_dict

    return schedule_from_dict(data)


def _workload_from_dict(data: Any) -> Any:
    from repro.workload import workload_from_dict

    return workload_from_dict(data)


@dataclass
class DeploymentSpec:
    """Everything needed to reproduce one protocol run.

    The field declarations are the whole schema: a field's type is its
    annotation, its ``min`` / ``choices`` ride in ``metadata``, and a
    section that is an object of its own names the function that rebuilds
    it from its ``describe()`` (``load``).  Validation, :meth:`to_dict`,
    :meth:`from_dict` and ``spec_fingerprint`` all walk these fields.
    """

    protocol: str = field(default="eesmr", metadata={"choices": PROTOCOLS})
    n: int = field(default=7, metadata={"min": 2})
    f: int = field(default=1, metadata={"min": 0})
    k: int = field(default=2, metadata={"min": 1})
    topology: str = field(default="ring-kcast", metadata={"choices": TOPOLOGIES})
    #: Outgoing k-casts per node for the ``random-kcast`` topology.
    edges_per_node: int = 1
    #: Seed for the ``random-kcast`` receiver sampling; defaults to a
    #: stream derived from ``seed`` so runs stay reproducible per spec.
    topology_seed: Optional[int] = None
    medium: str = field(default="ble", metadata={"choices": MEDIA})
    hop_delay: float = field(default=1.0, metadata={"min": 0})
    delta: Optional[float] = None
    signature_scheme: str = field(
        default="rsa-1024", metadata={"choices": tuple(available_schemes())}
    )
    batch_size: int = field(default=1, metadata={"min": 1})
    command_payload_bytes: int = field(default=16, metadata={"min": 0})
    target_height: int = field(default=5, metadata={"min": 1})
    block_interval: float = field(default=0.0, metadata={"min": 0})
    fault_plan: FaultPlan = field(default_factory=FaultPlan, metadata={"load": plan_from_dict})
    #: Optional testkit fault schedule (``repro.testkit.faults.FaultSchedule``),
    #: duck-typed here to keep ``eval`` importable without the testkit.  When
    #: set it supersedes ``fault_plan``: per-node behaviours come from
    #: :meth:`FaultSchedule.replica_behaviour` and network-level faults are
    #: armed via :meth:`FaultSchedule.install`.
    fault_schedule: Optional[Any] = field(default=None, metadata={"load": _schedule_from_dict})
    #: Optional workload engine (``repro.workload.WorkloadEngine``), duck-typed
    #: here so ``eval`` stays importable without the workload layer.  ``None``
    #: (the default) is the seed behaviour: the closed-loop preload that fills
    #: every txpool before the run starts.
    workload: Optional[Any] = field(default=None, metadata={"load": _workload_from_dict})
    #: Bound on each replica's pending-command pool (``None`` = unbounded,
    #: the seed behaviour).  Threaded into ``ProtocolConfig.txpool_limit``.
    txpool_limit: Optional[int] = field(default=None, metadata={"min": 1})
    #: Optional wire impairment (``repro.net.impairment.ImpairmentSpec``),
    #: duck-typed to keep ``eval`` lean.  ``None`` (the default) is the seed
    #: behaviour: a perfectly reliable medium.
    impairment: Optional[Any] = field(default=None, metadata={"load": impairment_from_dict})
    seed: int = 0
    #: Charge every correct node's idle baseline over the run's virtual time
    #: when the session finishes (the paper subtracts it; off by default).
    #: Schema-visible: :meth:`to_dict` writes it into corpus entries and
    #: ``--spec`` files (``spec_fingerprint`` omits it).
    charge_sleep: bool = False
    jitter: bool = True

    def __post_init__(self) -> None:
        check_fields(self)
        # The cross-field rules.  ``f < n/2`` is not one of them: the matrix
        # and the fuzzer build over-budget specs on purpose and skip them
        # with a reason, so ``ProtocolConfig`` enforces it where a run is built.
        if self.k > self.n - 1:
            raise SpecError(f"must be in [1, n-1], got k={self.k}, n={self.n}", "k")
        if self.topology == "random-kcast" and self.edges_per_node < 1:
            raise SpecError(f"random-kcast needs >= 1, got {self.edges_per_node}", "edges_per_node")
        targets = [("fault_plan.faulty", self.fault_plan.faulty)]
        for index, fault in enumerate(getattr(self.fault_schedule, "faults", ())):
            targets.append((f"fault_schedule[{index}].node", fault.nodes()))
        for path, ids in targets:
            outside = [pid for pid in ids if not 0 <= pid < self.n]
            if outside:
                raise SpecError(f"node ids {outside} are outside range(n={self.n})", path)

    @property
    def byzantine_nodes(self) -> tuple[int, ...]:
        """Node ids under adversary control (schedule-aware).

        Read *after* a run for adaptive schedules: their victim sets are
        decided mid-run and recorded back onto the schedule.
        """
        if self.fault_schedule is not None:
            return tuple(self.fault_schedule.byzantine_nodes())
        return self.fault_plan.faulty

    # ------------------------------------------------------------ declarative
    def to_dict(self) -> dict:
        """A JSON-safe description of this spec (round-trips via
        :meth:`from_dict`).  The one schema every surface serialises
        through: CLI ``--spec`` files, matrix cell dumps, benchmarks."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            sectioned = "load" in f.metadata and value is not None
            out[f.name] = value.describe() if sectioned else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. parsed JSON): omitted
        keys and ``null`` sections take the dataclass's defaults, a malformed
        value is a :class:`~repro.net.impairment.SpecError` at its JSON path."""
        return from_fields(cls, data, "DeploymentSpec")


@dataclass
class RunResult:
    """Metrics collected from one run."""

    spec: DeploymentSpec
    config: ProtocolConfig
    energy: EnergyReport
    safety: SafetyReport
    network: NetworkStats
    sim_time: float
    committed_heights: Dict[int, int]
    min_committed_height: int
    view_changes: int
    equivocations_detected: int
    blames_sent: int
    sign_operations: int
    verify_operations: int
    replica_snapshots: Dict[int, dict]
    #: Structured per-run trace (``repro.testkit.trace.RunTrace``) when the
    #: session was built with a recorder; ``None`` otherwise.
    trace: Optional[Any] = None
    #: Commands dropped by bounded txpools (overflow verdicts), summed over
    #: all replicas.  Zero for unbounded (seed-behaviour) pools.
    commands_dropped: int = 0
    #: Duplicate submissions rejected by txpools, summed over all replicas.
    commands_duplicate: int = 0
    #: Largest per-replica pool occupancy observed during the run.
    txpool_high_watermark: int = 0
    #: SLO metrics summary (``repro.session.metrics.MetricsObserver``) when
    #: one was registered on the session; ``None`` otherwise.
    metrics: Optional[Any] = None
    #: Hop deliveries dropped by the wire impairment model (0 on a clean
    #: medium — the seed behaviour).
    deliveries_dropped: int = 0
    #: Retransmissions performed by the reliable-delivery sublayer.
    deliveries_retransmitted: int = 0
    #: Deliveries the reliable sublayer abandoned after exhausting retries.
    delivery_giveups: int = 0
    #: The linearizable log behind ``committed_blocks``: the command ids in
    #: the committed log of the correct node at ``min_committed_height``
    #: (every other correct log extends it).
    committed_command_ids: List[str] = field(default_factory=list)

    # ------------------------------------------------------------- derived
    @property
    def committed_blocks(self) -> int:
        """Consensus units completed by every correct node."""
        return self.min_committed_height

    @property
    def correct_energy_j(self) -> float:
        return self.energy.correct_total_joules

    @property
    def correct_energy_mj(self) -> float:
        return self.energy.correct_total_joules * 1000.0

    @property
    def energy_per_block_mj(self) -> float:
        """Total correct-node energy per committed consensus unit (mJ)."""
        blocks = max(1, self.committed_blocks)
        return self.correct_energy_mj / blocks

    @property
    def distinct_commands(self) -> int:
        """Distinct commands every correct node committed — the useful work."""
        return len(set(self.committed_command_ids))

    @property
    def energy_per_distinct_command_mj(self) -> float:
        """Total correct-node energy per distinct committed command (mJ).

        Equals ``energy_per_block_mj / batch_size`` when every slot orders
        new work; a block that repeats a command, or carries none, costs
        its energy without adding to the denominator.
        """
        return self.correct_energy_mj / max(1, self.distinct_commands)

    @property
    def leader_energy_mj(self) -> float:
        return self.energy.leader_joules * 1000.0

    @property
    def leader_energy_per_block_mj(self) -> float:
        blocks = max(1, self.committed_blocks)
        return self.leader_energy_mj / blocks

    @property
    def replica_energy_per_block_mj(self) -> float:
        blocks = max(1, self.committed_blocks)
        return self.energy.mean_replica_joules * 1000.0 / blocks


def run_protocol(spec: DeploymentSpec, **builder_kwargs) -> RunResult:
    """Run ``spec`` to quiescence and collect its metrics.

    ``builder_kwargs`` are :class:`~repro.session.builder.SessionBuilder`'s
    (``max_events``, ``observers``, ``recorder``).
    """
    # Imported here: the session layer imports this module's value types.
    from repro.session.session import Session

    return Session.from_spec(spec, **builder_kwargs).run().finish()
