"""One-pass construction of protocol deployments.

:meth:`SessionBuilder.build` makes a deployment in this order and hands it
to a :class:`~repro.session.session.Session`::

    topology -> radios, ledger, network -> crypto -> replicas -> workload -> faults -> observers

The order is a contract.  Simulator events pushed at build time take
queue sequence numbers in push order, and the golden trace fingerprints
and the build push-order test pin that order byte-for-byte.  Three steps
push events:

* replicas — a replicated baseline arms one fail-stop timer per crashing
  replica, in pid order (EESMR's adversary classes arm themselves at start);
* workload — an arrival-driven engine pushes one ``workload:arrival`` per
  command;
* faults — the trusted baseline arms its leaf fail-stops (pid order), then
  the schedule pushes its own events.
"""

from __future__ import annotations

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
from repro.net.hypergraph import Hypergraph
from repro.net.impairment import SpecError
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
from repro.session.spec import DeploymentSpec, RunResult
from repro.sim.rng import SeededRNG, derive_seed
from repro.sim.scheduler import Simulator
from repro.workload import ClosedLoopPreload


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


class SessionBuilder:
    """Builds a :class:`~repro.session.session.Session` for one spec.

    Args:
        spec: The deployment to build.
        observers: Session observers, invoked in the given order.
        recorder: Optional ``repro.testkit.trace.TraceRecorder`` (itself a
            :class:`SessionObserver`), registered after ``observers``.
    """

    def __init__(
        self,
        spec: DeploymentSpec,
        *,
        observers: Sequence[SessionObserver] = (),
        recorder: Optional[Any] = None,
    ) -> None:
        self.spec = spec
        self.observers: List[SessionObserver] = list(observers)
        if recorder is not None:
            self.observers.append(recorder)
        self.sim = Simulator()

    def build(self) -> Session:
        """Build the deployment in the module docstring's order."""
        spec = self.spec
        trusted = spec.protocol == "trusted-baseline"
        # Topology and Δ.  The trusted baseline's leaves hang off a control star.
        if trusted:
            topology = star_topology(spec.n + 1, center=spec.n)
            delta = spec.delta if spec.delta is not None else 3 * spec.hop_delay
        else:
            topology = build_topology(spec)
            delta = compute_delta(spec, topology)

        # Radios, energy ledger and network.
        ledger = ClusterEnergyLedger(topology.nodes)
        if trusted:
            # The paper's trusted baseline talks to its control node over
            # LTE; "ble" (the default) keeps that, other media override.
            kcast_radio = None
            unicast_radio = MediumUnicastAdapter(
                lte_medium() if spec.medium == "ble" else make_medium(spec.medium)
            )
        else:
            kcast_radio, unicast_radio = build_radios(spec)
        network = SimulatedNetwork(
            self.sim,
            topology,
            ledger,
            rng=SeededRNG(spec.seed).child("network"),
            kcast_radio=kcast_radio,
            unicast_radio=unicast_radio,
            hop_delay=spec.hop_delay,
            jitter=spec.jitter,
        )
        if spec.impairment is not None:
            # The model derives its own child stream; an unimpaired spec
            # builds the exact network the seed did (no model at all).
            network.configure_impairment(spec.impairment)

        # Key material for every topology node, signature scheme, config.
        keystore = KeyStore(seed=spec.seed)
        keystore.generate(topology.nodes)
        scheme = make_scheme(spec.signature_scheme, keystore=keystore)
        config = ProtocolConfig(
            n=spec.n,
            f=spec.f,
            delta=delta,
            signature_scheme=spec.signature_scheme,
            batch_size=spec.batch_size,
            command_payload_bytes=spec.command_payload_bytes,
            target_height=spec.target_height,
            block_interval=spec.block_interval,
            txpool_limit=spec.txpool_limit,
        )

        # Replicas, registered in pid order (the control node first).
        if trusted:
            control, replicas = self._build_trusted_replicas(config, scheme, network)
        else:
            control, replicas = None, self._build_replicated_replicas(config, scheme, network)
            for replica in replicas.values():
                network.register(replica)

        engine = spec.workload if spec.workload is not None else ClosedLoopPreload()
        commands = engine.install(self.sim, replicas, spec)

        schedule = spec.fault_schedule
        controllers: Tuple[Any, ...] = ()
        if schedule is not None:
            if trusted:
                self._arm_failstops(replicas)
            # The schedule arms its own network-level faults (relay denial of
            # Byzantine nodes, drops, partitions) with per-fault timing.
            schedule.install(self.sim, network, replicas)
            controllers = tuple(schedule.controllers())
        if controllers and not trusted:
            # Budget-aware provisioning: an adaptive atom picks its victims
            # mid-run, so quorum sizes must assume its whole budget up
            # front.  Generated schedules (the fuzzer) hit this path with
            # arbitrary budgets; failing at build time beats a run whose
            # realised Byzantine set silently exceeds the f the quorums
            # were sized for.
            required = schedule.max_byzantine()
            if spec.f < required:
                raise SpecError(
                    f"schedule may field {required} Byzantine nodes (adaptive "
                    f"budget included) but the deployment provisions f={spec.f}; "
                    f"raise f to at least {required}",
                    "f",
                )

        # Dispatch is only installed where some observer listens, so a
        # session without observers runs the exact seed code paths.
        bus = ObserverBus(self.observers)
        if bus.overrides("on_fault_window"):
            network.fault_observer = bus.fault_window
        if bus.overrides("on_block_commit") or bus.overrides("on_view_change"):
            for replica in replicas.values():
                replica.hooks = bus
        return Session(
            spec,
            self.sim,
            network,
            config,
            scheme,
            replicas,
            control=control,
            commands=commands,
            controllers=controllers,
            bus=bus,
        )

    def _build_replicated_replicas(
        self, config: ProtocolConfig, scheme: SignatureScheme, network: SimulatedNetwork
    ) -> Dict[int, Any]:
        spec = self.spec
        replicas: Dict[int, Any] = {}
        for pid in range(spec.n):
            meter = network.ledger.meter(pid)
            if spec.protocol == "eesmr":
                cls, kwargs = self._eesmr_class_for(pid)
                replica = cls(self.sim, pid, config, scheme, network, meter, **kwargs)
            else:
                base_cls = (
                    SyncHotStuffReplica if spec.protocol == "sync-hotstuff" else OptSyncReplica
                )
                replica = base_cls(self.sim, pid, config, scheme, network, meter)
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
        self, config: ProtocolConfig, scheme: SignatureScheme, network: SimulatedNetwork
    ) -> Tuple[TrustedControlNode, Dict[int, Any]]:
        spec = self.spec
        control_id = spec.n
        control = TrustedControlNode(
            self.sim,
            control_id,
            config,
            scheme,
            network,
            round_interval=max(spec.hop_delay, 0.5),
        )
        replicas: Dict[int, Any] = {}
        for pid in range(spec.n):
            replicas[pid] = TrustedBaselineReplica(
                self.sim, pid, config, scheme, network, network.ledger.meter(pid), control_id
            )
        control.replica_ids = list(replicas)
        network.register(control)
        for replica in replicas.values():
            network.register(replica)
        return control, replicas


def run_protocol(spec: DeploymentSpec, **builder_kwargs) -> RunResult:
    """Run ``spec`` to quiescence and collect its metrics.

    ``builder_kwargs`` are :class:`SessionBuilder`'s (``observers``,
    ``recorder``).  Keep the session instead, through
    :meth:`SessionBuilder.build`, to step, pause or inspect a run.
    """
    return SessionBuilder(spec, **builder_kwargs).build().run().finish()
