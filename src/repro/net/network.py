"""Bounded-synchronous simulated network over a hypergraph.

This is the transport that every protocol in :mod:`repro.core` runs on.
It emulates the paper's CPS deployment:

* the topology is a :class:`repro.net.hypergraph.Hypergraph` of k-casts;
* a protocol-level *broadcast* is realised by flooding: the origin
  transmits on its outgoing hyper-edges and every correct node relays each
  unique message exactly once, so a single protocol message reaches all
  nodes with O(n * d) physical transmissions — the property EESMR exploits
  in the steady state;
* every physical transmission charges radio energy to the sender and to
  each receiver on the hyper-edge (receivers pay even for duplicates — the
  radio does not know the payload is old until it has received it), which
  is why measured energy grows linearly with the in-degree k, as in
  Fig. 2c;
* deliveries respect bounded synchrony: with per-hop delay at most
  ``hop_delay`` the end-to-end delay after flooding is bounded by
  ``diameter * hop_delay``, and experiments choose the protocol Δ above
  that bound (see :func:`repro.session.builder.compute_delta`);
* Byzantine nodes may silently refuse to relay (a relay denial nobody
  lifts — see :meth:`SimulatedNetwork.deny_relay`), which is exactly the
  partitioning threat the hypergraph fault bound (Appendix A) protects
  against.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.crypto.hashing import canonical_bytes
from repro.energy.ledger import ClusterEnergyLedger
from repro.energy.meter import EnergyCategory
from repro.net.hypergraph import Hypergraph
from repro.net.impairment import HOP_RETRY, ImpairmentModel, ImpairmentSpec
from repro.radio.ble import BleAdvertisementKCast
from repro.radio.gatt import BleGattUnicast
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.rng import SeededRNG

#: Wire size of a reliable-delivery ACK (sequence number + flood id).
ACK_WIRE_BYTES = 8

_TRANSMIT = EnergyCategory.TRANSMIT
_RECEIVE = EnergyCategory.RECEIVE


class DisseminationPlan:
    """A compiled flood plan: the per-hop path as flat lookup structures.

    Relaying a flood hop is a pure function of the (relay-denial,
    partition) state and the message's wire size — none of which change
    between fault-window transitions.  The plan precomputes, per node:

    * whether the node relays floods it did not originate;
    * the node's energy meter handle;
    * one record per outgoing hyper-edge: the radio cost object for this
      plan's wire size, the partition-filtered sorted receiver tuple and
      those receivers' meters.

    Executing the plan touches O(1) precompiled state per hop instead of
    re-querying the topology index, relay-denial and partition tables,
    radio-cost memo and meter cache.  Plans are validated against the
    network's state epoch at every relay, so the rare fault-window
    transitions that mutate denial or partition state are observed by the
    very next hop.
    """

    __slots__ = ("state_epoch", "size", "nodes")

    def __init__(self, state_epoch: int, size: int, nodes: dict) -> None:
        self.state_epoch = state_epoch
        self.size = size
        #: pid -> (relays, meter, edge records); partitioned nodes
        #: are absent (they neither relay nor receive).
        self.nodes = nodes


class Flood:
    """The in-network state of one broadcast or one-hop multicast.

    Every reception and retransmission event of the flood carries this
    record in its ``args``, so the dedup sets live exactly as long as
    something is still propagating: the last event to finish drops the
    last reference.  ``in_flight`` counts those pending events plus one
    reference held by the call that is still transmitting; the flood is
    retired (:attr:`SimulatedNetwork.live_floods`) when it reaches zero.
    """

    __slots__ = ("flood_id", "origin", "message", "delivered", "relayed", "in_flight")

    def __init__(self, flood_id: int, origin: int, message: Any) -> None:
        self.flood_id = flood_id
        self.origin = origin
        self.message = message
        #: Nodes the message has been delivered to / that have relayed it.
        self.delivered: set[int] = set()
        self.relayed: set[int] = set()
        self.in_flight = 1


def default_wire_size(message: Any) -> int:
    """Wire size of a message in bytes.

    Messages that know their own size expose ``wire_size_bytes`` (protocol
    messages compute it once per instance); anything else is serialized
    canonically and measured.
    """
    size = getattr(message, "wire_size_bytes", None)
    if size is not None:
        return int(size)
    return len(canonical_bytes(message))


@dataclass
class NetworkStats:
    """Counters used for communication-complexity measurements (Table 3)."""

    broadcasts: int = 0
    unicasts: int = 0
    physical_transmissions: int = 0
    physical_bytes: int = 0
    deliveries: int = 0
    per_node_transmissions: Counter = field(default_factory=Counter)
    per_node_bytes: Counter = field(default_factory=Counter)

    def record_transmission(self, sender: int, size_bytes: int) -> None:
        self.physical_transmissions += 1
        self.physical_bytes += size_bytes
        self.per_node_transmissions[sender] += 1
        self.per_node_bytes[sender] += size_bytes


class SimulatedNetwork:
    """Flooding network over a hypergraph with energy accounting.

    A k-cast is one transmission that its receivers hear at the same
    instant, so an unimpaired transmission is one simulator event
    (:meth:`_arrive_edge`) that handles its receivers in sorted order.  Its
    traced label lists them: ``net:flood{id}->{r1},{r2}``.  Untraced runs
    use the constant labels ``"net:flood"`` / ``"net:uni"``.
    """

    def __init__(
        self,
        sim: Simulator,
        hypergraph: Hypergraph,
        ledger: ClusterEnergyLedger,
        rng: SeededRNG,
        kcast_radio: Optional[BleAdvertisementKCast] = None,
        unicast_radio: Optional[BleGattUnicast] = None,
        hop_delay: float = 1.0,
        jitter: bool = True,
    ) -> None:
        self.sim = sim
        self.hypergraph = hypergraph
        self.ledger = ledger
        # Reserved exclusively for hop-jitter draws (:meth:`_hop_latency`).
        # Every other stochastic consumer (the impairment model, the
        # reliable sublayer's backoff jitter) derives its own child stream,
        # so new randomness can never perturb baseline delivery timing.
        self.rng = rng
        self.kcast_radio = kcast_radio or BleAdvertisementKCast()
        self.unicast_radio = unicast_radio or BleGattUnicast()
        self.hop_delay = hop_delay
        self.jitter = jitter

        self.processes: Dict[int, Process] = {}
        self.stats = NetworkStats()
        self._flood_counter = itertools.count()
        # Floods started and not yet retired (see :class:`Flood`).
        self._live_floods = 0
        # A node's condition is a depth in a table: pid -> how many open
        # windows cut it off / deny its relaying (:meth:`_push` and
        # :meth:`_pop` do the arithmetic).  Overlapping windows compose —
        # the node rejoins, or relays again, only when the *last* one
        # closes — and a Byzantine node is a relay denial nobody pops.
        # Membership tests treat each dict as the set of affected nodes.
        self._partition: Dict[int, int] = {}
        self._relay_denied: Dict[int, int] = {}
        # (size, k) -> k-cast cost and size -> unicast cost: pricing is a
        # pure function of the shape, computed once per shape.
        self._kcast_costs: Dict[tuple, Any] = {}
        self._unicast_costs: Dict[int, Any] = {}
        # pid -> meter: skips the ledger's lazy-create indirection when
        # plans are compiled and on the unicast / impaired paths.
        self._meter_cache: Dict[int, Any] = {}
        # Compiled dissemination plans, keyed by wire size.  Bumping
        # ``_state_epoch`` (any relay-denial or partition mutation)
        # invalidates every cached plan.
        self._plans: Dict[int, DisseminationPlan] = {}
        self._state_epoch = 0
        # Optional (node, kind, active, time) callback fired on *effective*
        # fault-window transitions (relay denial and partition edges) — the
        # session observer bus's ``on_fault_window`` dispatch.
        self.fault_observer = None
        # Whether an unbalanced reconnect() (no isolation active) has warned.
        self._warned_unbalanced_reconnect = False
        # Wire-level impairment (off by default: ``None`` keeps the delivery
        # path byte-identical to the seed — one attribute test per hop).
        # Created lazily by :meth:`configure_impairment` / the timed
        # impairment fault atoms via :meth:`impair_node`.
        self.impairment: Optional[ImpairmentModel] = None

    # ---------------------------------------------------------- registration
    def register(self, process: Process) -> None:
        """Attach a process (replica, client, control node) to the network."""
        if process.pid in self.processes:
            raise ValueError(f"process {process.pid} already registered")
        if process.pid not in self.hypergraph.nodes:
            raise ValueError(f"process {process.pid} is not a node of the topology")
        self.processes[process.pid] = process

    # ------------------------------------------------------- node condition
    def _push(self, table: Dict[int, int], pid: int, kind: str) -> None:
        """Open one window of ``kind`` on ``pid``: depth + 1."""
        depth = table.get(pid, 0)
        table[pid] = depth + 1
        if depth == 0 and self.fault_observer is not None:
            self.fault_observer(pid, kind, True, self.sim.now)
        self.invalidate_plans()

    def _pop(self, table: Dict[int, int], pid: int, kind: str) -> bool:
        """Close one window of ``kind`` on ``pid``; ``False`` if none is open."""
        depth = table.get(pid, 0)
        if depth == 0:
            return False
        if depth == 1:
            del table[pid]
            if self.fault_observer is not None:
                self.fault_observer(pid, kind, False, self.sim.now)
        else:
            table[pid] = depth - 1
        self.invalidate_plans()
        return True

    def deny_relay(self, pid: int) -> None:
        """Push one refcounted relay denial onto ``pid``.

        The node keeps originating its own floods but forwards nobody
        else's until every denial has been lifted by its own
        :meth:`allow_relay`, so interleaved drop windows compose.  A
        Byzantine (or crashed) node is one denial that is never lifted.
        """
        self._push(self._relay_denied, pid, "relay-deny")

    def allow_relay(self, pid: int) -> None:
        """Pop one relay denial; the node relays again at depth zero.

        Unbalanced calls (no denial active) are a no-op, so healing an
        already-healed window cannot pre-cancel a later denial.
        """
        self._pop(self._relay_denied, pid, "relay-deny")

    def relay_denied(self, pid: int) -> bool:
        """Whether ``pid`` currently refuses to forward other nodes' floods."""
        return pid in self._relay_denied

    def isolate(self, pid: int) -> None:
        """Disconnect a node (failure injection helper).

        Refcounted: each :meth:`isolate` must be undone by its own
        :meth:`reconnect`, so overlapping partition windows on the same
        node cannot heal it early.
        """
        self._push(self._partition, pid, "partition")

    def reconnect(self, pid: int) -> None:
        """Undo one :meth:`isolate`; the node rejoins at depth zero.

        Reconnecting a node that is not isolated leaves the partition
        state untouched, but it is warned about once per network: a silent
        no-op is exactly how the pre-refcount fault-composition bugs hid, and
        an unbalanced call almost always means a fault schedule healed a
        window it never opened.
        """
        if self._pop(self._partition, pid, "partition"):
            return
        if not self._warned_unbalanced_reconnect:
            self._warned_unbalanced_reconnect = True
            warnings.warn(
                f"reconnect({pid}) without a matching isolate(): the call "
                "is a no-op; check the fault schedule's window composition "
                "(further unbalanced reconnects on this network are "
                "not warned about)",
                RuntimeWarning,
                stacklevel=2,
            )

    def is_partitioned(self, pid: int) -> bool:
        """Whether ``pid`` is currently cut off by at least one open window."""
        return pid in self._partition

    # ----------------------------------------------------------- impairment
    def configure_impairment(self, spec: Optional[ImpairmentSpec]) -> ImpairmentModel:
        """Install a wire-level impairment (see :mod:`repro.net.impairment`).

        The model's RNG is derived from the network stream with a pure
        ``child()`` call, so configuring (or never configuring) an
        impairment leaves the hop-jitter stream byte-identical.  The
        spec's ``max_retries`` is the reliable sublayer's retransmission
        budget, read through the model whenever an attempt is scheduled.
        """
        model = self._ensure_impairment()
        if spec is not None:
            model.spec = spec
        return model

    def _ensure_impairment(self) -> ImpairmentModel:
        model = self.impairment
        if model is None:
            model = ImpairmentModel(None, self.rng.child("impairment"))
            self.impairment = model
        return model

    def impair_node(self, pid: int, kind: str, value: float) -> None:
        """Push one per-node impairment overlay (a fault window opening).

        Overlays stack like the refcounted relay/partition mutators:
        nested windows compose and each :meth:`unimpair_node` pops one.
        """
        self._ensure_impairment().push(pid, kind, value)
        if self.fault_observer is not None:
            self.fault_observer(pid, f"impair-{kind}", True, self.sim.now)
        self.invalidate_plans()

    def unimpair_node(self, pid: int, kind: str) -> None:
        """Pop the most recent ``kind`` overlay on ``pid`` (window closing)."""
        model = self.impairment
        if model is None or not model.pop(pid, kind):
            return
        if self.fault_observer is not None:
            self.fault_observer(pid, f"impair-{kind}", False, self.sim.now)
        self.invalidate_plans()

    def invalidate_plans(self) -> None:
        """Invalidate every compiled dissemination plan.

        Called automatically by the relay-denial and partition mutators;
        cheap (one integer bump), so fault windows pay nothing beyond the
        recompile their first post-transition flood hop triggers.
        """
        self._state_epoch += 1

    # -------------------------------------------------------------- timing
    def _hop_latency(self) -> float:
        # Draws only from ``self.rng`` — the dedicated jitter stream.  The
        # impairment model and retransmission chains draw their latencies
        # from their own child stream, so the sequence of jitter draws (and
        # with it every baseline fingerprint) is independent of whether the
        # wire is impaired.
        if not self.jitter:
            return self.hop_delay
        return self.hop_delay * self.rng.uniform(0.5, 1.0)

    # ------------------------------------------------------------ broadcast
    def broadcast(self, origin: int, message: Any) -> int:
        """Flood ``message`` from ``origin`` to every node; returns the flood id.

        The origin is delivered its own message immediately (protocols rely
        on "the leader also acts as a node"); everyone else receives it when
        the flood first reaches them.
        """
        self._require_registered(origin)
        flood = Flood(next(self._flood_counter), origin, message)
        self._live_floods += 1
        self.stats.broadcasts += 1
        # Local delivery to the origin (no radio energy).
        self._deliver(flood, origin)
        self._plan_relay(self._plan_for(default_wire_size(message)), flood, origin)
        self._release(flood)
        return flood.flood_id

    def multicast_neighbors(self, origin: int, message: Any) -> None:
        """One-hop k-cast (no flooding) — used by leader-to-neighbour patterns."""
        self._require_registered(origin)
        flood = Flood(next(self._flood_counter), origin, message)
        flood.delivered.add(origin)
        self._live_floods += 1
        size = default_wire_size(message)
        # The compiled plan holds the origin's edge records; a partitioned
        # origin is absent from it but still reaches unpartitioned receivers.
        record = self._plan_for(size).nodes.get(origin)
        edges = self._edge_records(origin, size) if record is None else record[2]
        # The receptions carry no plan, so nobody forwards.
        self._transmit(flood, origin, self._meter(origin), edges, size, None)
        self._release(flood)

    # ------------------------------------------------------- compiled plans
    def _plan_for(self, size: int) -> DisseminationPlan:
        """The current compiled plan for ``size``-byte floods.

        Stale cached plans (the state epoch moved) are discarded wholesale;
        compilation is O(nodes + edges) and happens once per (fault-window
        epoch, wire size).
        """
        plan = self._plans.get(size)
        if plan is not None and plan.state_epoch == self._state_epoch:
            return plan
        denied = self._relay_denied
        nodes = {
            node: (node not in denied, self._meter(node), self._edge_records(node, size))
            for node in self.hypergraph.nodes
            if node not in self._partition
        }
        plan = DisseminationPlan(self._state_epoch, size, nodes)
        if size in self._plans or len(self._plans) < 1024:
            self._plans[size] = plan
        return plan

    def _edge_records(self, node: int, size: int) -> tuple:
        """``node``'s out-edges priced for ``size`` bytes, one
        ``(cost, receivers, receiver meters)`` record each; partitioned
        receivers are left out."""
        partition = self._partition
        records = []
        for edge in self.hypergraph.out_edges(node):
            receivers = tuple(r for r in edge.receivers_sorted if r not in partition)
            meters = tuple(self._meter(r) for r in receivers)
            records.append((self._kcast_cost(size, edge.degree), receivers, meters))
        return tuple(records)

    def _plan_relay(self, plan: DisseminationPlan, flood: Flood, node: int) -> None:
        """Transmit the flood's message on all of ``node``'s outgoing hyper-edges.

        Every node relays a flood at most once.  The plan is revalidated
        here (one epoch compare per hop), so fault transitions that fired
        since compilation are observed by this hop.  A relay-denied node
        (Byzantine, or inside a drop window) forwards only floods it
        originated; the hypergraph fault bound guarantees correct nodes
        still receive the flood via other paths.
        """
        if plan.state_epoch != self._state_epoch:
            plan = self._plan_for(plan.size)
        record = plan.nodes.get(node)
        if record is None:  # partitioned at plan-compile time
            return
        relayed = flood.relayed
        if node in relayed:
            return
        relayed.add(node)
        relays, meter, edges = record
        if not relays and node != flood.origin:
            return
        self._transmit(flood, node, meter, edges, plan.size, plan)

    def _transmit(
        self,
        flood: Flood,
        sender: int,
        meter,
        edges: tuple,
        size: int,
        plan: Optional[DisseminationPlan],
    ) -> None:
        """k-cast the flood's message once per ``(cost, receivers, meters)`` record.

        An unimpaired transmission is one event for all its receivers.  On
        an impaired wire each receiver gets its own verdict and latency, so
        its own event.  The impairment gate is a pure read: one evaluation
        covers every transmission of the call.
        """
        sim = self.sim
        stats = self.stats
        imp = self.impairment
        impaired = imp is not None and imp.engaged(sim.now)
        for cost, receivers, meters in edges:
            meter.charge(_TRANSMIT, cost.sender_energy_j)
            stats.record_transmission(sender, size)
            latency = self._hop_latency()
            if impaired:
                for receiver in receivers:
                    self._impaired_reception(
                        flood, sender, receiver, flood.message, cost, latency, size, plan, imp
                    )
            elif receivers:
                flood.in_flight += 1
                if sim.trace_enabled:
                    label = f"net:flood{flood.flood_id}->{','.join(map(str, receivers))}"
                else:
                    label = "net:flood"
                args = (flood, receivers, meters, cost, plan)
                sim.schedule(latency, self._arrive_edge, label, args)

    def _release(self, flood: Optional[Flood]) -> None:
        """Drop one in-flight reference on ``flood``; it is retired at zero.

        Long runs therefore hold state for the handful of floods currently
        propagating instead of every flood ever broadcast.  A unicast
        (``None``) has no flood state to release.
        """
        if flood is not None:
            flood.in_flight -= 1
            if not flood.in_flight:
                self._live_floods -= 1

    @property
    def live_floods(self) -> int:
        """Number of floods started and not yet retired (GC metric)."""
        return self._live_floods

    def _meter(self, pid: int):
        meter = self._meter_cache.get(pid)
        if meter is None:
            meter = self.ledger.meter(pid)
            self._meter_cache[pid] = meter
        return meter

    def _kcast_cost(self, size: int, k: int):
        cost = self._kcast_costs.get((size, k))
        if cost is None:
            cost = self.kcast_radio.transmission_cost(size, k)
            if len(self._kcast_costs) < 4096:
                self._kcast_costs[(size, k)] = cost
        return cost

    def _unicast_cost(self, size: int):
        cost = self._unicast_costs.get(size)
        if cost is None:
            cost = self.unicast_radio.transmission_cost(size)
            if len(self._unicast_costs) < 4096:
                self._unicast_costs[size] = cost
        return cost

    # ------------------------------------------------------------ receptions
    # One delivery pipeline serves floods and unicasts: ``flood is None``
    # marks a unicast, whose message travels in the event's arguments.
    def _schedule_arrival(
        self,
        flood: Optional[Flood],
        hop_sender: int,
        receiver: int,
        message: Any,
        cost,
        latency: float,
        plan: Optional[DisseminationPlan],
    ) -> None:
        """Schedule one receiver's copy: a unicast, or a flood edge of one receiver."""
        labelled = self.sim.trace_enabled
        if flood is None:
            label = f"net:uni {hop_sender}->{receiver}" if labelled else "net:uni"
            args = (hop_sender, receiver, message, cost)
            self.sim.schedule(latency, self._arrive_unicast, label, args)
            return
        flood.in_flight += 1
        label = f"net:flood{flood.flood_id}->{receiver}" if labelled else "net:flood"
        args = (flood, (receiver,), (self._meter(receiver),), cost, plan)
        self.sim.schedule(latency, self._arrive_edge, label, args)

    def _arrive_edge(
        self,
        flood: Flood,
        receivers: tuple,
        meters: tuple,
        cost,
        plan: Optional[DisseminationPlan],
    ) -> None:
        """A transmission is heard: per receiver, in sorted order, charge
        the radio, deliver once, relay on.

        Duplicates are charged too: the radio does not know the payload is
        old until it has received it.
        """
        energy = cost.per_receiver_energy_j
        delivered = flood.delivered
        for receiver, meter in zip(receivers, meters):
            meter.charge(_RECEIVE, energy)
            if receiver not in delivered:
                self._deliver(flood, receiver)
                if plan is not None:  # one-hop multicasts carry no plan
                    self._plan_relay(plan, flood, receiver)
        # _release, inline.
        flood.in_flight -= 1
        if not flood.in_flight:
            self._live_floods -= 1

    def _deliver(self, flood: Flood, receiver: int) -> None:
        flood.delivered.add(receiver)
        process = self.processes.get(receiver)
        if process is None:
            return
        self.stats.deliveries += 1
        process.deliver(flood.origin, flood.message)

    def _arrive_unicast(self, src: int, dst: int, message: Any, cost) -> None:
        self._meter(dst).charge(_RECEIVE, cost.receiver_energy_j)
        process = self.processes.get(dst)
        if process is not None:
            self.stats.deliveries += 1
            process.deliver(src, message)

    # ------------------------------------------------- impaired delivery
    def _impaired_reception(
        self,
        flood: Optional[Flood],
        hop_sender: int,
        receiver: int,
        message: Any,
        cost,
        latency: float,
        size: int,
        plan: Optional[DisseminationPlan],
        imp: ImpairmentModel,
    ) -> None:
        """Judge one hop delivery against the impairment model.

        A dropped delivery hands off to the reliable sublayer's
        retransmission chain; a duplicated one arrives twice (the radio
        does not dedup — the receiver pays energy for both copies, the
        flood dedup set drops the payload); jitter/reorder verdicts delay
        the arrival.  All extra latency draws come from the impairment
        stream, never from the hop-jitter stream.
        """
        dropped, duplicated, extra = imp.judge(receiver, cost, self.sim.now, self.hop_delay)
        if dropped:
            self._begin_retransmit(flood, hop_sender, receiver, message, cost, size, plan)
            return
        if extra:
            latency += extra
        self._schedule_arrival(flood, hop_sender, receiver, message, cost, latency, plan)
        if duplicated:
            dup_latency = latency + self.hop_delay * imp.rng.uniform(0.25, 0.75)
            self._schedule_arrival(flood, hop_sender, receiver, message, cost, dup_latency, plan)

    def _begin_retransmit(
        self,
        flood: Optional[Flood],
        hop_sender: int,
        receiver: int,
        message: Any,
        cost,
        size: int,
        plan: Optional[DisseminationPlan],
    ) -> None:
        if self.impairment.spec.max_retries <= 0:
            self.impairment.note_giveup(receiver)
            return
        if flood is not None:
            # Chain token: keep the flood live while the retransmission
            # chain is pending.  Released on give-up, on an implicit ACK
            # (delivery via another edge), or once the recovered copy's
            # real arrival has been scheduled (which takes its own
            # in-flight reference).
            flood.in_flight += 1
        self._schedule_retransmit(flood, hop_sender, receiver, message, cost, size, plan, 0)

    def _schedule_retransmit(
        self,
        flood: Optional[Flood],
        hop_sender: int,
        receiver: int,
        message: Any,
        cost,
        size: int,
        plan: Optional[DisseminationPlan],
        attempt: int,
    ) -> None:
        # The budget in force when the attempt is scheduled judges it when
        # it fires, so it travels with the event.
        imp = self.impairment
        budget = imp.spec.max_retries
        delay = HOP_RETRY.retry_delay(attempt, imp.rng)
        labelled = self.sim.trace_enabled
        if flood is None:
            label = f"net:rtx-uni {hop_sender}->{receiver}" if labelled else "net:rtx-uni"
        else:
            label = f"net:rtx{flood.flood_id}->{receiver}" if labelled else "net:rtx"
        self.sim.schedule(
            delay,
            self._resend,
            label=label,
            args=(flood, hop_sender, receiver, message, cost, size, plan, budget, attempt),
        )

    def _resend(
        self,
        flood: Optional[Flood],
        hop_sender: int,
        receiver: int,
        message: Any,
        cost,
        size: int,
        plan: Optional[DisseminationPlan],
        max_retries: int,
        attempt: int,
    ) -> None:
        """One retransmission attempt of a dropped hop delivery fires."""
        if (
            (flood is not None and receiver in flood.delivered)
            or receiver in self._partition
            or hop_sender in self._partition
        ):
            # Implicit ACK — the receiver got this flood via another
            # edge in the meantime — or a partition cut the link.
            self._release(flood)
            return
        imp = self.impairment
        self._meter(hop_sender).charge(_TRANSMIT, cost.sender_energy_j)
        self.stats.record_transmission(hop_sender, size)
        imp.note_retransmit(receiver)
        if imp.rng.chance(imp.loss_probability(receiver, cost, self.sim.now)):
            if attempt + 1 >= max_retries:
                imp.note_giveup(receiver)
                self._release(flood)
            else:
                self._schedule_retransmit(
                    flood, hop_sender, receiver, message, cost, size, plan, attempt + 1
                )
            return
        # Recovered: the copy got through and the receiver ACKs it.
        latency = self.hop_delay * imp.rng.uniform(0.5, 1.0) if self.jitter else self.hop_delay
        self._charge_ack(hop_sender, receiver)
        imp.note_recovered(receiver)
        self._schedule_arrival(flood, hop_sender, receiver, message, cost, latency, plan)
        self._release(flood)

    def _charge_ack(self, hop_sender: int, receiver: int) -> None:
        """Charge the per-message ACK of a recovered reliable delivery.

        The receiver transmits a small ACK unicast; the retransmitting
        sender receives it.  First-attempt deliveries stay ACK-free (the
        sublayer is lazy: it only engages explicit acknowledgements once
        a loss is suspected), so the baseline energy model is unchanged.
        """
        cost = self._unicast_cost(ACK_WIRE_BYTES)
        self._meter(receiver).charge(_TRANSMIT, cost.sender_energy_j)
        self._meter(hop_sender).charge(_RECEIVE, cost.receiver_energy_j)
        self.stats.record_transmission(receiver, ACK_WIRE_BYTES)

    # -------------------------------------------------------------- unicast
    def send(self, src: int, dst: int, message: Any) -> None:
        """Point-to-point send from ``src`` to ``dst`` over the unicast radio.

        The base system model assumes point-to-point links exist between all
        node pairs; the CPS instantiation realises them as (serialised) GATT
        connections.  Energy is charged to both endpoints; delivery happens
        after at most one hop delay.
        """
        self._require_registered(src)
        if dst not in self.hypergraph.nodes:
            raise ValueError(f"destination {dst} is not a node of the topology")
        if src in self._partition or dst in self._partition:
            return
        size = default_wire_size(message)
        cost = self._unicast_cost(size)
        self._meter(src).charge(_TRANSMIT, cost.sender_energy_j)
        self.stats.unicasts += 1
        self.stats.record_transmission(src, size)
        latency = self._hop_latency()
        imp = self.impairment
        if imp is not None and imp.engaged(self.sim.now):
            self._impaired_reception(None, src, dst, message, cost, latency, size, None, imp)
        else:
            self._schedule_arrival(None, src, dst, message, cost, latency, None)

    # ------------------------------------------------------------- helpers
    def _require_registered(self, pid: int) -> None:
        if pid not in self.processes:
            raise ValueError(f"process {pid} is not registered with the network")
