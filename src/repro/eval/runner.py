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

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.adversary import FaultPlan
from repro.core.config import ProtocolConfig
from repro.core.ledger import SafetyReport
from repro.energy.ledger import EnergyReport
from repro.net.network import NetworkStats

#: Names accepted by DeploymentSpec.protocol.
PROTOCOLS = ("eesmr", "sync-hotstuff", "optsync", "trusted-baseline")

#: Names accepted by DeploymentSpec.medium.  ``"ble"`` is the paper's test
#: bed (reliable advertisement k-casts + GATT unicasts); the others price
#: every transmission with the corresponding Table 1 medium model.
MEDIA = ("ble", "wifi", "4g-lte")

#: Names accepted by DeploymentSpec.topology.
TOPOLOGIES = ("ring-kcast", "fully-connected", "unicast-ring", "star", "random-kcast")


@dataclass
class DeploymentSpec:
    """Everything needed to reproduce one protocol run."""

    protocol: str = "eesmr"
    n: int = 7
    f: int = 1
    k: int = 2
    topology: str = "ring-kcast"
    #: Outgoing k-casts per node for the ``random-kcast`` topology.
    edges_per_node: int = 1
    #: Seed for the ``random-kcast`` receiver sampling; defaults to a
    #: stream derived from ``seed`` so runs stay reproducible per spec.
    topology_seed: Optional[int] = None
    medium: str = "ble"
    hop_delay: float = 1.0
    delta: Optional[float] = None
    signature_scheme: str = "rsa-1024"
    batch_size: int = 1
    command_payload_bytes: int = 16
    target_height: int = 5
    block_interval: float = 0.0
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    #: Optional testkit fault schedule (``repro.testkit.faults.FaultSchedule``),
    #: duck-typed here to keep ``eval`` importable without the testkit.  When
    #: set it supersedes ``fault_plan``: per-node behaviours come from
    #: :meth:`FaultSchedule.replica_behaviour` and network-level faults are
    #: armed via :meth:`FaultSchedule.install`.
    fault_schedule: Optional[Any] = None
    #: Optional workload engine (``repro.workload.WorkloadEngine``), duck-typed
    #: here so ``eval`` stays importable without the workload layer.  ``None``
    #: (the default) is the seed behaviour: the closed-loop preload that fills
    #: every txpool before the run starts.  Engines serialise through
    #: :meth:`WorkloadEngine.describe` / ``repro.workload.workload_from_dict``.
    workload: Optional[Any] = None
    #: Bound on each replica's pending-command pool (``None`` = unbounded,
    #: the seed behaviour).  Threaded into ``ProtocolConfig.txpool_limit``.
    txpool_limit: Optional[int] = None
    #: Optional wire impairment (``repro.net.impairment.ImpairmentSpec``),
    #: duck-typed to keep ``eval`` lean.  ``None`` (the default) is the seed
    #: behaviour: a perfectly reliable medium.  Serialises through
    #: :meth:`ImpairmentSpec.describe` / ``impairment_from_dict``.
    impairment: Optional[Any] = None
    seed: int = 0
    #: Charge every correct node's idle baseline over the run's virtual time
    #: when the session finishes (the paper subtracts it; off by default).
    #: Schema-visible: :meth:`to_dict` writes it into corpus entries and
    #: ``--spec`` files (``spec_fingerprint`` omits it).
    charge_sleep: bool = False
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; known: {PROTOCOLS}")
        if self.medium not in MEDIA:
            raise ValueError(f"unknown medium {self.medium!r}; known: {MEDIA}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; known: {TOPOLOGIES}")
        if self.k < 1 or self.k > self.n - 1:
            raise ValueError(f"k must be in [1, n-1], got k={self.k}, n={self.n}")
        if self.topology == "random-kcast" and self.edges_per_node < 1:
            raise ValueError(
                f"random-kcast needs edges_per_node >= 1, got {self.edges_per_node}"
            )
        if self.txpool_limit is not None and self.txpool_limit < 1:
            raise ValueError(
                f"txpool_limit must be >= 1 or None, got {self.txpool_limit}"
            )

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
        out = {
            "protocol": self.protocol,
            "n": self.n,
            "f": self.f,
            "k": self.k,
            "topology": self.topology,
            "edges_per_node": self.edges_per_node,
            "topology_seed": self.topology_seed,
            "medium": self.medium,
            "hop_delay": self.hop_delay,
            "delta": self.delta,
            "signature_scheme": self.signature_scheme,
            "batch_size": self.batch_size,
            "command_payload_bytes": self.command_payload_bytes,
            "target_height": self.target_height,
            "block_interval": self.block_interval,
            "seed": self.seed,
            "charge_sleep": self.charge_sleep,
            "jitter": self.jitter,
            "fault_plan": {
                "faulty": list(self.fault_plan.faulty),
                "behaviour": self.fault_plan.behaviour,
                "trigger_round": self.fault_plan.trigger_round,
                "crash_time": self.fault_plan.crash_time,
            },
            "fault_schedule": (
                self.fault_schedule.describe() if self.fault_schedule is not None else None
            ),
            "workload": self.workload.describe() if self.workload is not None else None,
            "txpool_limit": self.txpool_limit,
            "impairment": (
                self.impairment.describe() if self.impairment is not None else None
            ),
        }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. parsed JSON)."""
        data = dict(data)
        plan_data = data.pop("fault_plan", None)
        schedule_data = data.pop("fault_schedule", None)
        workload_data = data.pop("workload", None)
        impairment_data = data.pop("impairment", None)
        unknown = set(data) - _SPEC_FIELDS
        if unknown:
            raise ValueError(f"unknown DeploymentSpec fields {sorted(unknown)}")
        kwargs: Dict[str, Any] = dict(data)
        if plan_data is not None:
            # Omitted keys fall through to FaultPlan's own defaults — the
            # dataclass stays the single source of truth for them.
            plan_data = dict(plan_data)
            kwargs["fault_plan"] = FaultPlan(
                faulty=tuple(plan_data.pop("faulty", ())), **plan_data
            )
        if schedule_data is not None:
            # Lazy import: ``eval`` stays importable without the testkit.
            from repro.testkit.faults import schedule_from_dict

            kwargs["fault_schedule"] = schedule_from_dict(schedule_data)
        if workload_data is not None:
            # Lazy import: ``eval`` stays importable without the workload layer.
            from repro.workload import workload_from_dict

            kwargs["workload"] = workload_from_dict(workload_data)
        if impairment_data is not None:
            from repro.net.impairment import impairment_from_dict

            kwargs["impairment"] = impairment_from_dict(impairment_data)
        return cls(**kwargs)


#: Scalar DeploymentSpec field names accepted by :meth:`DeploymentSpec.from_dict`.
_SPEC_FIELDS = {name for name in DeploymentSpec.__dataclass_fields__} - {
    "fault_plan",
    "fault_schedule",
    "workload",
    "impairment",
}


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
