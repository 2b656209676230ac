"""Staged construction of protocol deployments.

:class:`SessionBuilder` decomposes the experiment runner's monolithic
build-and-run method into an explicit pipeline of stages::

    topology -> medium/radios -> crypto -> replicas -> workload -> faults -> observers

Each stage computes a typed artifact (:class:`TopologyStage`,
:class:`MediumStage`, ...) that is cached on the builder, visible to every
later stage, and individually overridable: subclass the builder and
replace one ``build_*`` method, or pre-assign the artifact slot before
calling :meth:`build`, and the remaining stages consume the substitute
without the caller forking the whole runner.

The stage *ordering contract* matters: simulator events scheduled at
build time (baseline fail-stop timers, fault-window arming, replica
start-up) acquire queue sequence numbers in push order, and the golden
trace fingerprints pin that order byte-for-byte.  Stages that schedule
events document exactly what they push; stages that don't may be swapped
freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.adversary import BEHAVIOUR_CLASSES
from repro.core.baselines.optsync import OptSyncReplica
from repro.core.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.core.baselines.trusted_baseline import TrustedBaselineReplica, TrustedControlNode
from repro.core.config import ProtocolConfig
from repro.core.eesmr.replica import EesmrReplica
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignatureScheme, make_scheme
from repro.energy.ledger import ClusterEnergyLedger
from repro.eval.runner import DeploymentSpec
from repro.workload import ClosedLoopPreload, WorkloadEngine
from repro.net.hypergraph import Hypergraph
from repro.net.network import SimulatedNetwork
from repro.net.topology import (
    fully_connected_topology,
    random_kcast_topology,
    ring_kcast_topology,
    star_topology,
    unicast_ring_topology,
)
from repro.radio.media import (
    MediumKCastAdapter,
    MediumUnicastAdapter,
    lte_medium,
    make_medium,
)
from repro.session.observers import ObserverBus, SessionObserver
from repro.session.session import Session
from repro.sim.rng import SeededRNG, derive_seed
from repro.sim.scheduler import Simulator


# ---------------------------------------------------------------- stage logic
def build_topology(spec: DeploymentSpec) -> Hypergraph:
    """The hypergraph for a spec (ring k-cast by default, as in the paper)."""
    if spec.topology == "ring-kcast":
        return ring_kcast_topology(spec.n, spec.k)
    if spec.topology == "fully-connected":
        return fully_connected_topology(spec.n)
    if spec.topology == "unicast-ring":
        return unicast_ring_topology(spec.n, spec.k)
    if spec.topology == "star":
        return star_topology(spec.n + 1, center=spec.n)
    if spec.topology == "random-kcast":
        topology_seed = (
            spec.topology_seed
            if spec.topology_seed is not None
            else derive_seed(spec.seed, "topology", spec.n, spec.k, spec.edges_per_node)
        )
        return random_kcast_topology(
            spec.n, spec.k, edges_per_node=spec.edges_per_node, rng=SeededRNG(topology_seed)
        )
    raise ValueError(f"unknown topology {spec.topology!r}")


def compute_delta(spec: DeploymentSpec, topology: Hypergraph) -> float:
    """A Δ that upper-bounds flooded delivery plus a unicast response."""
    if spec.delta is not None:
        return spec.delta
    diameter = max(1, topology.diameter())
    return (diameter + 2) * spec.hop_delay


def build_radios(spec: DeploymentSpec) -> Tuple[Optional[Any], Optional[Any]]:
    """The (k-cast, unicast) radio pair for the spec's medium.

    ``None`` entries mean "use the network's default" — the calibrated BLE
    advertisement k-cast and GATT unicast of the paper's test bed.
    """
    if spec.medium == "ble":
        return None, None
    medium = make_medium(spec.medium)
    return MediumKCastAdapter(medium), MediumUnicastAdapter(medium)


# ------------------------------------------------------------ stage artifacts
@dataclass
class TopologyStage:
    """Stage 1: the communication graph and the synchrony bound over it."""

    topology: Hypergraph
    delta: float
    #: Node id of the trusted control node, or ``None`` for replicated runs.
    control_id: Optional[int] = None


@dataclass
class MediumStage:
    """Stage 2: radios, energy ledger and the simulated network."""

    kcast_radio: Optional[Any]
    unicast_radio: Optional[Any]
    ledger: ClusterEnergyLedger
    network: SimulatedNetwork


@dataclass
class CryptoStage:
    """Stage 3: key material, signature scheme and protocol configuration."""

    keystore: KeyStore
    scheme: SignatureScheme
    config: ProtocolConfig


@dataclass
class ReplicaStage:
    """Stage 4: replica processes, registered with the network.

    For baseline protocols this stage also arms per-replica fail-stop
    timers (one ``after`` per scheduled crash, in pid order) — those
    events are part of the golden trace order.
    """

    replicas: Dict[int, Any]
    #: The trusted control node, or ``None`` for replicated runs.
    control: Optional[TrustedControlNode] = None


@dataclass
class WorkloadStage:
    """Stage 5: the workload engine's deterministic command stream.

    The default :class:`~repro.workload.ClosedLoopPreload` fills every
    txpool at build time and pushes no events (the seed behaviour, pinned
    byte-for-byte by the golden fingerprints).  Arrival-driven engines
    (open-loop, trace replay) instead schedule one ``workload:arrival``
    event per command here — after the replica stage's fail-stop timers
    and before the fault stage's events, an ordering the open-loop
    determinism tests pin.
    """

    commands: List[Any]
    #: The engine that produced the stream (never ``None`` after build).
    engine: Optional[WorkloadEngine] = None
    #: Commands injected as simulator events (empty for preloads).
    arrivals: Tuple[Any, ...] = ()


@dataclass
class FaultStage:
    """Stage 6: armed network faults and any session-time fault controllers.

    Scheduling order (pinned by golden traces): for replicated runs the
    schedule's own fault events are pushed here, after every replica
    fail-stop timer from stage 4; for the trusted baseline, leaf fail-stop
    timers are pushed first (pid order), then the schedule's events.
    """

    controllers: Tuple[Any, ...] = ()


@dataclass
class ObserverStage:
    """Stage 7: the observer bus, wired into the live substrates."""

    bus: ObserverBus = field(default_factory=ObserverBus)


class SessionBuilder:
    """Builds a :class:`~repro.session.session.Session` stage by stage.

    Args:
        spec: The deployment to build.
        max_events: Safety valve against livelocked protocols.
        observers: Session observers, invoked in the given order.
        recorder: Optional ``repro.testkit.trace.TraceRecorder`` (itself a
            :class:`SessionObserver`), registered after ``observers``.

    Stages can be overridden three ways::

        # 1. subclass and replace one stage method
        class StarBuilder(SessionBuilder):
            def build_topology_stage(self):
                return TopologyStage(star_topology(self.spec.n, 0), 6.0)

        # 2. pre-assign the artifact slot before build()
        builder = SessionBuilder(spec)
        builder.topology_stage = TopologyStage(my_graph, delta=8.0)
        session = builder.build()

        # 3. run stages manually and inspect between them
        builder.build_topology_stage(); builder.build_medium_stage(); ...
    """

    def __init__(
        self,
        spec: DeploymentSpec,
        *,
        max_events: int = 2_000_000,
        observers: Sequence[SessionObserver] = (),
        recorder: Optional[Any] = None,
    ) -> None:
        self.spec = spec
        self.max_events = max_events
        self.observers: List[SessionObserver] = list(observers)
        if recorder is not None:
            self.observers.append(recorder)
        self.sim = Simulator()
        self.rng = SeededRNG(spec.seed)
        # Stage slots, filled lazily (and overridable before build()).
        self.topology_stage: Optional[TopologyStage] = None
        self.medium_stage: Optional[MediumStage] = None
        self.crypto_stage: Optional[CryptoStage] = None
        self.replica_stage: Optional[ReplicaStage] = None
        self.workload_stage: Optional[WorkloadStage] = None
        self.fault_stage: Optional[FaultStage] = None
        self.observer_stage: Optional[ObserverStage] = None

    @property
    def trusted(self) -> bool:
        """Whether this deployment runs the paper's trusted baseline."""
        return self.spec.protocol == "trusted-baseline"

    # ------------------------------------------------------------ stage 1
    def build_topology_stage(self) -> TopologyStage:
        """Topology and Δ.  Trusted-baseline runs use a control star."""
        spec = self.spec
        if self.trusted:
            control_id = spec.n
            topology = star_topology(spec.n + 1, center=control_id)
            delta = spec.delta if spec.delta is not None else 3 * spec.hop_delay
            self.topology_stage = TopologyStage(topology, delta, control_id)
        else:
            topology = build_topology(spec)
            self.topology_stage = TopologyStage(topology, compute_delta(spec, topology))
        return self.topology_stage

    # ------------------------------------------------------------ stage 2
    def build_medium_stage(self) -> MediumStage:
        """Radios for the spec's medium, energy ledger, simulated network."""
        spec = self.spec
        top = self._need("topology_stage")
        ledger = ClusterEnergyLedger(top.topology.nodes)
        if self.trusted:
            # The paper's trusted baseline talks to its control node over
            # LTE; "ble" (the default) keeps that, other media override.
            kcast_radio = None
            unicast_radio = (
                MediumUnicastAdapter(lte_medium())
                if spec.medium == "ble"
                else MediumUnicastAdapter(make_medium(spec.medium))
            )
        else:
            kcast_radio, unicast_radio = build_radios(spec)
        network = SimulatedNetwork(
            self.sim,
            top.topology,
            ledger,
            rng=self.rng.child("network"),
            kcast_radio=kcast_radio,
            unicast_radio=unicast_radio,
            hop_delay=spec.hop_delay,
            jitter=spec.jitter,
        )
        if spec.impairment is not None:
            # The model derives its own child stream; an unimpaired spec
            # builds the exact network the seed did (no model at all).
            network.configure_impairment(spec.impairment)
        self.medium_stage = MediumStage(kcast_radio, unicast_radio, ledger, network)
        return self.medium_stage

    # ------------------------------------------------------------ stage 3
    def build_crypto_stage(self) -> CryptoStage:
        """Key store (all topology nodes), signature scheme, protocol config."""
        spec = self.spec
        top = self._need("topology_stage")
        keystore = KeyStore(seed=spec.seed)
        keystore.generate(top.topology.nodes)
        scheme = make_scheme(spec.signature_scheme, keystore=keystore)
        config = ProtocolConfig(
            n=spec.n,
            f=spec.f,
            delta=top.delta,
            signature_scheme=spec.signature_scheme,
            batch_size=spec.batch_size,
            command_payload_bytes=spec.command_payload_bytes,
            target_height=spec.target_height,
            block_interval=spec.block_interval,
            txpool_limit=spec.txpool_limit,
        )
        self.crypto_stage = CryptoStage(keystore, scheme, config)
        return self.crypto_stage

    # ------------------------------------------------------------ stage 4
    def build_replica_stage(self) -> ReplicaStage:
        """Replicas (Byzantine substitutions applied), registered in pid order.

        Event-scheduling contract: for baseline protocols each replica's
        fail-stop timer is pushed immediately after that replica is
        constructed (pid order); EESMR adversary classes arm their own
        misbehaviour at start time.  The trusted baseline schedules leaf
        fail-stops later, in the fault stage — matching the seed runner.
        """
        network = self._need("medium_stage").network
        crypto = self._need("crypto_stage")
        if self.trusted:
            stage = self._build_trusted_replicas(crypto, network)
        else:
            replicas = self._build_replicated_replicas(crypto, network)
            stage = ReplicaStage(replicas)
            for replica in replicas.values():
                network.register(replica)
        self.replica_stage = stage
        return stage

    def _build_replicated_replicas(
        self, crypto: CryptoStage, network: SimulatedNetwork
    ) -> Dict[int, Any]:
        spec = self.spec
        ledger = self._need("medium_stage").ledger
        replicas: Dict[int, Any] = {}
        for pid in range(spec.n):
            meter = ledger.meter(pid)
            if spec.protocol == "eesmr":
                cls, kwargs = self._eesmr_class_for(pid)
                replica = cls(
                    self.sim, pid, crypto.config, crypto.scheme, network, meter, **kwargs
                )
            else:
                base_cls = (
                    SyncHotStuffReplica if spec.protocol == "sync-hotstuff" else OptSyncReplica
                )
                replica = base_cls(self.sim, pid, crypto.config, crypto.scheme, network, meter)
            replicas[pid] = replica
        if spec.protocol != "eesmr":
            self._arm_failstops(replicas)
        return replicas

    def _eesmr_class_for(self, pid: int):
        """The (class, kwargs) for one EESMR node under the spec's faults."""
        schedule = self.spec.fault_schedule
        behaviour = schedule.replica_behaviour(pid) if schedule is not None else None
        if behaviour is None:
            return EesmrReplica, {}
        name, kwargs = behaviour
        return BEHAVIOUR_CLASSES[name], dict(kwargs)

    def _arm_failstops(self, replicas: Dict[int, Any]) -> None:
        """Baseline faults are modelled as fail-stop at the trigger time: one
        ``crash`` timer per node the schedule fail-stops, pushed in pid order."""
        schedule = self.spec.fault_schedule
        if schedule is None:
            return
        for pid, replica in replicas.items():
            failstop = schedule.failstop_time(pid)
            if failstop is not None:
                replica.after(failstop, replica.crash, label="crash")

    def _build_trusted_replicas(
        self, crypto: CryptoStage, network: SimulatedNetwork
    ) -> ReplicaStage:
        spec = self.spec
        top = self._need("topology_stage")
        ledger = self._need("medium_stage").ledger
        control = TrustedControlNode(
            self.sim,
            top.control_id,
            crypto.config,
            crypto.scheme,
            network,
            round_interval=max(spec.hop_delay, 0.5),
        )
        replicas: Dict[int, Any] = {}
        for pid in range(spec.n):
            replicas[pid] = TrustedBaselineReplica(
                self.sim,
                pid,
                crypto.config,
                crypto.scheme,
                network,
                ledger.meter(pid),
                top.control_id,
            )
        control.replica_ids = list(replicas)
        network.register(control)
        for replica in replicas.values():
            network.register(replica)
        return ReplicaStage(replicas, control=control)

    # ------------------------------------------------------------ stage 5
    def build_workload_stage(self) -> WorkloadStage:
        """Install the spec's workload engine (default: closed-loop preload)."""
        engine = self.spec.workload if self.spec.workload is not None else ClosedLoopPreload()
        plan = engine.install(self)
        self.workload_stage = WorkloadStage(
            commands=plan.commands, engine=engine, arrivals=plan.arrivals
        )
        return self.workload_stage

    # ------------------------------------------------------------ stage 6
    def build_fault_stage(self) -> FaultStage:
        """Arm network-level faults and collect session-time controllers."""
        spec = self.spec
        network = self._need("medium_stage").network
        replica_stage = self._need("replica_stage")
        replicas = replica_stage.replicas
        schedule = spec.fault_schedule
        controllers: Tuple[Any, ...] = ()
        if schedule is not None:
            if self.trusted:
                self._arm_failstops(replicas)
            # The schedule arms its own network-level faults (relay denial of
            # Byzantine nodes, drops, partitions) with per-fault timing.
            schedule.install(self.sim, network, replicas)
            controllers = tuple(schedule.controllers())
        if controllers and not self.trusted:
            # Budget-aware provisioning: an adaptive atom picks its victims
            # mid-run, so quorum sizes must assume its whole budget up
            # front.  Generated schedules (the fuzzer) hit this path with
            # arbitrary budgets; failing at build time beats a run whose
            # realised Byzantine set silently exceeds the f the quorums
            # were sized for.
            required = schedule.max_byzantine()
            if spec.f < required:
                raise ValueError(
                    f"schedule may field {required} Byzantine nodes (adaptive "
                    f"budget included) but the deployment provisions f={spec.f}; "
                    f"raise f to at least {required}"
                )
        self.fault_stage = FaultStage(controllers)
        return self.fault_stage

    # ------------------------------------------------------------ stage 7
    def build_observer_stage(self) -> ObserverStage:
        """Wire the observer bus into the network and replicas.

        Dispatch is only installed where some observer listens, so a
        session without observers runs the exact seed code paths.
        """
        bus = ObserverBus(self.observers)
        network = self._need("medium_stage").network
        replica_stage = self._need("replica_stage")
        if bus.overrides("on_fault_window"):
            network.fault_observer = bus.fault_window
        if bus.overrides("on_block_commit") or bus.overrides("on_view_change"):
            for replica in replica_stage.replicas.values():
                replica.hooks = bus
        self.observer_stage = ObserverStage(bus)
        return self.observer_stage

    # -------------------------------------------------------------- assembly
    def _need(self, slot: str):
        """The artifact in ``slot``, building it (and its defaults) on demand."""
        artifact = getattr(self, slot)
        if artifact is None:
            artifact = getattr(self, f"build_{slot}")()
        return artifact

    def build(self) -> Session:
        """Run every stage still unset (in pipeline order) and assemble."""
        self._need("topology_stage")
        self._need("medium_stage")
        self._need("crypto_stage")
        self._need("replica_stage")
        self._need("workload_stage")
        self._need("fault_stage")
        self._need("observer_stage")
        return Session(self)
