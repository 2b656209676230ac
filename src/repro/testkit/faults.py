"""The FaultSchedule DSL: timed, per-node, composable fault injection.

A deployment's faults are one schedule: different nodes misbehaving in
different ways, faults that switch on and off at chosen virtual times, and
purely environmental perturbations (relay-drop windows, partitions) that
leave the node itself correct.  :class:`repro.core.adversary.FaultPlan`,
one behaviour on fixed nodes for a whole run, is shorthand that
:meth:`FaultSchedule.from_plan` lowers.

A :class:`FaultSchedule` is an immutable composition of fault atoms:

=====================  =====================================================
``CrashAt(p, t)``      fail-stop node ``p`` at virtual time ``t``
``StallAt(p, r)``      leader ``p`` stops proposing at steady round ``r``
``EquivocateAt(p, r)`` leader ``p`` proposes two conflicting blocks at ``r``
``SilentFrom(p)``      node ``p`` never sends (it still listens and pays
                       receive energy)
``RelayDropWindow``    node ``p`` refuses to relay floods during
``(p, t0, t1)``        ``[t0, t1)`` but is otherwise correct
``PartitionWindow``    node ``p`` is disconnected (sends and receives
``(p, t0, t1)``        nothing) during ``[t0, t1)``, then catches up
``CrashRecoverWindow`` node ``p`` is powered off during ``[t0, t1)``,
``(p, t0, t1)``        then reboots with committed state intact
=====================  =====================================================

The schedule plugs into :class:`repro.session.builder.SessionBuilder`
through three hooks:

* :meth:`FaultSchedule.replica_behaviour` — the Byzantine replica class to
  substitute for a node (EESMR runs real adversary subclasses);
* :meth:`FaultSchedule.failstop_time` — the fail-stop instant for protocols
  that model Byzantine behaviours as crashes (the baselines, as in the
  seed runner);
* :meth:`FaultSchedule.install` — arms network-level faults (relay drops,
  partitions, relay silence at crash time) on the simulator.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.core.types import Round
from repro.net.impairment import SpecError, check_fields, checked_number, from_kind

#: How long after a heal/restart a recovering node stays liveness-exempt.
#: Past ``heal + CATCH_UP_GRACE`` the node is held to the full liveness
#: target again — catch-up (``repro.recovery``) must have worked by then.
CATCH_UP_GRACE = 8.0


def loss_allowance_end(end: float, loss: float) -> float:
    """When the liveness allowance of a lossy window closing at ``end`` lapses.

    One grace share for the retransmission tail (retry chains of drops
    near the window's end run past it) plus a loss-proportional share for
    protocol catch-up.  Bounded: never more than twice the recovery grace,
    unlike the permanent Byzantine exemption.
    """
    return end + CATCH_UP_GRACE * (1.0 + min(1.0, loss))


@dataclass(frozen=True)
class Fault:
    """One fault atom applied to one node."""

    node: int

    #: Whether the node counts as adversary-controlled (excluded from the
    #: safety/energy accounting of correct nodes).  Environmental faults
    #: (drops, partitions) leave the node correct but perturbed.
    byzantine: ClassVar[bool] = True

    #: Whether the fault exempts its node from liveness expectations.
    #: Byzantine nodes and partitioned nodes may never reach the target
    #: height; a relay-drop node still receives and votes, so it stays
    #: held to full liveness (it only withholds *forwarding*).
    liveness_exempt: ClassVar[bool] = True

    def __post_init__(self) -> None:
        # Atoms are rebuilt from JSON: what an atom's own checks do not name
        # (``node`` above all) is held to its declaration; ``n`` is the spec's.
        check_fields(self)

    def nodes(self) -> Tuple[int, ...]:
        """The node ids this fault touches.

        Static atoms touch exactly ``(self.node,)``.  *Adaptive* atoms
        pick their victims mid-run; before a run they report ``()`` and
        afterwards the victims actually struck (see
        :class:`LeaderFollowingCrash`).
        """
        return (self.node,)

    def dynamic_budget(self) -> int:
        """Upper bound on nodes this fault may strike at run time (0 = static)."""
        return 0

    def controller(self):
        """A session controller executing this fault mid-run, or ``None``.

        Adaptive atoms return a fresh
        :class:`~repro.session.session.SessionController`; static atoms
        arm everything up front via :meth:`install` and need none.
        """
        return None

    def impairment(self) -> Optional[Tuple[float, float]]:
        """The ``[start, end)`` window during which this node cannot be
        relied on to forward floods (``None`` = never impaired).

        Used by the scenario matrix's per-topology feasibility check: the
        correct nodes must stay strongly connected with every concurrently
        impaired set removed (Lemma A.5's necessary condition,
        instantiated on the concrete fault schedule).
        """
        return None

    def exemption_end(self) -> float:
        """Virtual time at which this fault's liveness exemption lapses.

        Permanent exemptions (Byzantine behaviours) never lapse
        (``math.inf``); never-exempt atoms report ``-inf``.  Recovering
        atoms (:class:`PartitionWindow`, :class:`CrashRecoverWindow`)
        lapse at ``heal + CATCH_UP_GRACE``: past that instant the node is
        expected to have caught up and is held to full liveness again.
        """
        return math.inf if self.liveness_exempt else -math.inf

    def behaviour(self) -> Optional[Tuple[str, dict]]:
        """(behaviour name, kwargs) for the EESMR adversary class table."""
        return None

    def narrowed(self, start: float, end: float) -> "Fault":
        """A copy with its impairment window shrunk to ``[start, end)``.

        Only the timed window atoms (:class:`_Window`) support narrowing;
        it is the shrinker's second reduction pass.  The new window must
        lie inside the old one.
        """
        raise TypeError(f"{type(self).__name__} has no window to narrow")

    def failstop_time(self) -> Optional[float]:
        """When baseline protocols should fail-stop this node."""
        return None

    def install(self, sim, network, replicas) -> None:
        """Arm network-level effects on a built deployment."""

    def describe(self) -> dict:
        """A canonical, JSON-friendly description (static fields only).

        Round-trips through :func:`fault_from_dict`; runtime state
        (underscore-prefixed attributes such as an adaptive atom's
        recorded victims) is excluded so a described schedule can be
        re-deployed as the *same* declarative adversary.
        """
        out = {"kind": type(self).__name__, "node": self.node}
        for key, value in self.__dict__.items():
            if key != "node" and not key.startswith("_"):
                out[key] = value
        return out


class ByzantineFault(Fault):
    """Base for adversary-controlled node faults.

    Matching the seed experiment runner's worst case, a Byzantine node
    never relays floods — its relaying is denied from t=0 regardless of
    when its visible misbehaviour triggers, and nothing ever lifts the
    denial: windows stacked on the node push and pop above it.
    """

    def install(self, sim, network, replicas) -> None:
        network.deny_relay(self.node)

    def impairment(self) -> Optional[Tuple[float, float]]:
        return (0.0, math.inf)


@dataclass(frozen=True)
class CrashAt(ByzantineFault):
    """Fail-stop: correct until ``time``, then dark (and never relaying)."""

    time: float = 0.0

    def __post_init__(self) -> None:
        checked_number("crash time", self.time, path="time")
        super().__post_init__()

    def behaviour(self) -> Optional[Tuple[str, dict]]:
        return "crash", {"crash_time": self.time}

    def failstop_time(self) -> Optional[float]:
        return self.time


@dataclass(frozen=True)
class StallAt(ByzantineFault):
    """A stalling leader: proposes honestly before ``round``, never after."""

    round: Round = field(default=3, metadata={"min": 1})
    #: When baseline protocols (which model this as fail-stop) crash the node.
    #: A lowered :class:`~repro.core.adversary.FaultPlan` sets it to the
    #: plan's ``crash_time`` (0.0 by default); a hand-written atom keeps 1.0.
    baseline_failstop: float = 1.0

    def behaviour(self) -> Optional[Tuple[str, dict]]:
        return "silent_leader", {"trigger_round": self.round}

    def failstop_time(self) -> Optional[float]:
        return self.baseline_failstop


@dataclass(frozen=True)
class EquivocateAt(ByzantineFault):
    """An equivocating leader: two conflicting proposals at ``round``."""

    round: Round = field(default=3, metadata={"min": 1})
    #: As :attr:`StallAt.baseline_failstop`.
    baseline_failstop: float = 1.0

    def behaviour(self) -> Optional[Tuple[str, dict]]:
        return "equivocate", {"trigger_round": self.round}

    def failstop_time(self) -> Optional[float]:
        return self.baseline_failstop


@dataclass(frozen=True)
class SilentFrom(ByzantineFault):
    """A silent Byzantine node: sends nothing, relays nothing, still listens."""

    def behaviour(self) -> Optional[Tuple[str, dict]]:
        return "silent", {}

    def failstop_time(self) -> Optional[float]:
        return 0.0


#: The lowering table of :meth:`FaultSchedule.from_plan`: a ``FaultPlan``
#: behaviour -> its atom, and the plan fields that fill the atom's fields
#: after ``node``, in order.  A silent plan's ``crash_time`` is always 0.
PLAN_ATOMS: Dict[str, Tuple[type, Tuple[str, ...]]] = {
    "crash": (CrashAt, ("crash_time",)),
    "silent_leader": (StallAt, ("trigger_round", "crash_time")),
    "equivocate": (EquivocateAt, ("trigger_round", "crash_time")),
    "silent": (SilentFrom, ()),
}


@dataclass(frozen=True)
class _Window(Fault):
    """Base of the timed window atoms: one node perturbed during ``[start, end)``.

    The base owns what every window shares: bounds validation, the
    ``(start, end)`` view (:attr:`window` — the closing field is spelt
    ``heal`` on the recovering pair), narrowing, the relay-outage interval
    and the scheduling of the open/close event pair.  A window atom
    declares only its defaulted fields (``start``, then ``end`` or
    ``heal``, then any value), its :attr:`window_name` for error messages,
    its two event :attr:`labels`, and what :meth:`open` and :meth:`close`
    do to the network — always through the network's named entry points,
    which is where the refcounting that lets windows overlap lives.
    """

    byzantine: ClassVar[bool] = False

    #: How validation errors name this kind of window.
    window_name: ClassVar[str] = ""
    #: Name of the dataclass field that closes the window.
    end_field: ClassVar[str] = "end"
    #: Labels of the open and close events (``fault:<label>@<node>``).
    labels: ClassVar[Tuple[str, str]] = ("", "")

    def __post_init__(self) -> None:
        # A malformed bound must be a ``SpecError`` here, not a traceback
        # when the session is built.
        start, end = self.window
        checked_number(f"{self.window_name} start", start, path="start")
        checked_number(f"{self.window_name} {self.end_field}", end, path=self.end_field)
        if start < 0:
            raise SpecError(f"start time cannot be negative, got {start}", "start")
        if end <= start:
            raise SpecError(
                f"degenerate {self.window_name} window [{start}, {end}): "
                f"{self.end_field} must be strictly after start",
                self.end_field,
            )
        super().__post_init__()

    @property
    def window(self) -> Tuple[float, float]:
        """The window's ``(start, end)`` bounds."""
        return self.start, getattr(self, self.end_field)

    def impairment(self) -> Optional[Tuple[float, float]]:
        return self.window

    def narrowed(self, start: float, end: float) -> "Fault":
        lo, hi = self.window
        if start < lo or end > hi:
            raise ValueError(f"[{start}, {end}) is not inside the window [{lo}, {hi})")
        return dataclasses.replace(self, **{"start": start, self.end_field: end})

    def install(self, sim, network, replicas) -> None:
        start, end = self.window
        opened, closed = self.labels
        sim.schedule_at(
            start, self.open, label=f"fault:{opened}@{self.node}", args=(network, replicas)
        )
        sim.schedule_at(
            end, self.close, label=f"fault:{closed}@{self.node}", args=(network, replicas)
        )

    def open(self, network, replicas) -> None:
        """The window opens (fires at ``start``)."""
        raise NotImplementedError

    def close(self, network, replicas) -> None:
        """The window closes (fires at ``end``)."""
        raise NotImplementedError


@dataclass(frozen=True)
class RelayDropWindow(_Window):
    """An otherwise-correct node that drops relays during ``[start, end)``.

    This is the "silent relay" threat of the hypergraph fault bound
    (Appendix A): the node keeps running the protocol but contributes no
    forwarding for a while.  The node stays *correct* for safety and energy
    accounting — and because it keeps receiving floods and voting
    throughout the window, it is also still held to full liveness
    (``liveness_exempt = False``); only its *forwarding* is withheld.
    """

    start: float = 0.0
    end: float = 0.0

    liveness_exempt: ClassVar[bool] = False
    window_name: ClassVar[str] = "drop"
    labels: ClassVar[Tuple[str, str]] = ("drop-on", "drop-off")

    def open(self, network, replicas) -> None:
        network.deny_relay(self.node)

    def close(self, network, replicas) -> None:
        network.allow_relay(self.node)


@dataclass(frozen=True)
class _RecoveringWindow(_Window):
    """Base of the windows a node must *catch up* from, ``[start, heal)``.

    Exiting the window is not a permanent liveness pardon: a
    :class:`~repro.recovery.controller.RecoveryController` wakes at
    ``heal`` and drives block/QC catch-up from live peers, and the
    node's liveness exemption lapses at ``heal + CATCH_UP_GRACE``.
    """

    end_field: ClassVar[str] = "heal"

    def exemption_end(self) -> float:
        return self.heal + CATCH_UP_GRACE

    def controller(self):
        from repro.recovery.controller import RecoveryController

        return RecoveryController(self)


@dataclass(frozen=True)
class PartitionWindow(_RecoveringWindow):
    """A node cut off from the network during ``[start, heal)``, then
    catching up (see :class:`_RecoveringWindow`)."""

    start: float = 0.0
    heal: float = 0.0

    window_name: ClassVar[str] = "partition"
    labels: ClassVar[Tuple[str, str]] = ("partition", "heal")

    def open(self, network, replicas) -> None:
        network.isolate(self.node)

    def close(self, network, replicas) -> None:
        network.reconnect(self.node)


@dataclass(frozen=True)
class CrashRecoverWindow(_RecoveringWindow):
    """A benign crash-recover cycle: node powered off during ``[start, heal)``.

    Unlike :class:`CrashAt` the node is *correct* — it merely loses power
    for a window (no relaying, no receiving, timers dead) and reboots at
    ``heal`` with its committed state intact.  On reboot it does not
    re-enter the proposal rotation machinery by itself; it relies on the
    catch-up protocol (:mod:`repro.recovery`) to close the gap.
    """

    start: float = 0.0
    heal: float = 0.0

    window_name: ClassVar[str] = "crash-recover"
    labels: ClassVar[Tuple[str, str]] = ("crash-off", "restart")

    def open(self, network, replicas) -> None:
        replica = replicas.get(self.node)
        if replica is not None:
            replica.crash()
        # A powered-off node neither relays nor pays receive energy;
        # isolating it keeps the radio/energy accounting honest.
        network.isolate(self.node)

    def close(self, network, replicas) -> None:
        network.reconnect(self.node)
        replica = replicas.get(self.node)
        if replica is not None:
            replica.restart()


@dataclass(frozen=True)
class _ImpairmentWindow(_Window):
    """Base for timed wire-impairment windows on one node's deliveries.

    Installs a per-node overlay on the network's
    :class:`~repro.net.impairment.ImpairmentModel` at ``start`` and pops
    it at ``end``.  Overlays compose with any global spec-level
    impairment and with each other (nested windows stack), mirroring the
    refcounted relay/partition mutators.
    """

    start: float = 0.0
    end: float = 0.0

    liveness_exempt: ClassVar[bool] = False
    window_name: ClassVar[str] = "impairment"

    #: The overlay kind pushed onto the impairment model.
    impairment_kind: ClassVar[str] = ""
    #: Name of the dataclass field holding the overlay value.
    value_field: ClassVar[str] = ""

    def __post_init__(self) -> None:
        label = f"{type(self).__name__} {self.value_field}"
        value = getattr(self, self.value_field)
        checked_number(label, value, path=self.value_field)
        if not 0.0 < value <= 1.0:
            raise SpecError(f"{label} must be in (0, 1], got {value}", self.value_field)
        super().__post_init__()

    @property
    def labels(self) -> Tuple[str, str]:
        return f"{self.impairment_kind}-on", f"{self.impairment_kind}-off"

    def impairment(self) -> Optional[Tuple[float, float]]:
        # A degraded wire still carries relays: no outage for Lemma A.5.
        return None

    def open(self, network, replicas) -> None:
        network.impair_node(self.node, self.impairment_kind, getattr(self, self.value_field))

    def close(self, network, replicas) -> None:
        network.unimpair_node(self.node, self.impairment_kind)


@dataclass(frozen=True)
class LossWindow(_ImpairmentWindow):
    """An otherwise-correct node whose hop deliveries are *dropped* with
    probability ``loss`` during ``[start, end)``.

    The reliable-delivery sublayer retransmits each drop with bounded
    retries, so a working stack recovers the window's losses shortly
    after it closes.  The node is therefore liveness-exempt only for a
    **bounded latency allowance** past the window — proportional to the
    degradation severity and capped at ``2 * CATCH_UP_GRACE`` — after
    which the loss-budget liveness invariant (and the base liveness
    invariant) hold it to the full target again.  This mirrors the PR 7
    heal-grace design instead of granting a blanket exemption.
    """

    loss: float = 0.5

    liveness_exempt: ClassVar[bool] = True
    impairment_kind: ClassVar[str] = "loss"
    value_field: ClassVar[str] = "loss"

    def impairment(self) -> Optional[Tuple[float, float]]:
        # Only a total blackout (loss ~ 1) makes the node unable to take
        # part in dissemination at all; sub-unity loss leaves probabilistic
        # connectivity that redundancy-backed retransmission recovers, so
        # it does not count against Lemma A.5 strong connectivity.
        return self.window if self.loss >= 0.999 else None

    def exemption_end(self) -> float:
        return loss_allowance_end(self.end, self.loss)


@dataclass(frozen=True)
class DuplicateWindow(_ImpairmentWindow):
    """An otherwise-correct node receiving *duplicated* hop deliveries
    with probability ``probability`` during ``[start, end)``.

    The radio cannot know a payload is old before receiving it, so the
    node pays receive energy for every copy; the flood dedup layer drops
    the payload.  Duplication never prevents progress, so the node stays
    held to full liveness.
    """

    probability: float = 0.5

    impairment_kind: ClassVar[str] = "duplicate"
    value_field: ClassVar[str] = "probability"


@dataclass(frozen=True)
class JitterWindow(_ImpairmentWindow):
    """An otherwise-correct node whose hop deliveries are delayed by up to
    ``jitter`` extra hop delays during ``[start, end)``.

    Models a congested or interference-heavy patch of the medium.  The
    delay is bounded (at most ``jitter * hop_delay`` extra per hop), so
    the node stays held to full liveness — protocols choose Δ above the
    flooding bound and the experiments' Δ absorbs bounded extra delay.
    """

    jitter: float = 0.5

    impairment_kind: ClassVar[str] = "jitter"
    value_field: ClassVar[str] = "jitter"


@dataclass(frozen=True)
class LeaderFollowingCrash(Fault):
    """An *adaptive* (mobile) crash adversary that follows the rotation.

    Unlike every other atom, the victim set is not fixed up front: at each
    check (every ``interval`` of virtual time from ``start``) the
    adversary resolves the leader of the highest view any live replica is
    in and fail-stops it, then waits for the resulting view change to
    install the next leader and strikes again — up to ``budget`` victims.

    Executed by a :class:`~repro.session.adaptive.LeaderFollowingController`
    over the session's steppable run control; the controller records every
    victim back onto this atom, so post-run :meth:`nodes` (and hence the
    schedule's Byzantine/liveness accounting) reflects the nodes actually
    struck.  ``node`` is a placeholder (-1): adaptive atoms have no static
    target.
    """

    node: int = -1
    #: Maximum number of leaders to crash (must fit the deployment's f).
    budget: int = 1
    #: Virtual time at which the adversary starts stalking.
    start: float = 0.0
    #: Virtual time between leader checks.
    interval: float = 1.0

    byzantine: ClassVar[bool] = True
    liveness_exempt: ClassVar[bool] = True

    def __post_init__(self) -> None:
        # A budget of 1.5 or "2" would pass the range checks below yet
        # silently break the controller's spent-budget accounting mid-run.
        if isinstance(self.budget, bool) or not isinstance(self.budget, int):
            raise SpecError(f"adaptive budget must be an int, got {self.budget!r}", "budget")
        for name in ("start", "interval"):
            checked_number(f"adaptive {name}", getattr(self, name), path=name)
        if self.budget < 1:
            raise SpecError(f"adaptive budget must be >= 1, got {self.budget}", "budget")
        if self.interval <= 0:
            raise SpecError(f"check interval must be positive, got {self.interval}", "interval")
        if self.start < 0:
            raise SpecError(f"start time cannot be negative, got {self.start}", "start")
        super().__post_init__()

    def with_budget(self, budget: int) -> "LeaderFollowingCrash":
        """A copy provisioned for a smaller (or larger) victim budget."""
        return dataclasses.replace(self, budget=budget)

    # ------------------------------------------------------- dynamic targets
    def nodes(self) -> Tuple[int, ...]:
        return tuple(self.victims)

    @property
    def victims(self) -> Tuple[int, ...]:
        """Victims struck in the most recent run (empty before any run).

        The controller resets this when a new session starts, so the
        accounting always describes *one* campaign; sharing one schedule
        object across concurrently live sessions is not supported (build
        each from its own spec, e.g. via ``DeploymentSpec.from_dict``).
        """
        return tuple(self.__dict__.get("_victims", ()))

    def record_victim(self, pid: int) -> None:
        """Called by the controller when it strikes ``pid``."""
        struck = self.__dict__.setdefault("_victims", [])
        if pid not in struck:
            struck.append(pid)

    def reset_victims(self) -> None:
        """Start a fresh campaign (called when a new session attaches)."""
        self.__dict__["_victims"] = []

    def dynamic_budget(self) -> int:
        return self.budget

    def controller(self):
        from repro.session.adaptive import LeaderFollowingController

        return LeaderFollowingController(self)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable composition of fault atoms, pluggable into the runner."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        behaviours: Dict[int, str] = {}
        for index, fault in enumerate(self.faults):
            if not isinstance(fault, Fault):
                raise TypeError(f"not a Fault: {fault!r}")
            b = fault.behaviour()
            if b is not None:
                if fault.node in behaviours:
                    raise SpecError(
                        f"node {fault.node} has two Byzantine behaviours "
                        f"({behaviours[fault.node]} and {b[0]})",
                        f"[{index}]",
                    )
                behaviours[fault.node] = b[0]

    @classmethod
    def from_plan(cls, plan) -> "FaultSchedule":
        """The schedule a :class:`~repro.core.adversary.FaultPlan` is short
        for: one :data:`PLAN_ATOMS` atom per faulty node, in ``faulty`` order."""
        atom, carried = PLAN_ATOMS[plan.behaviour]
        values = tuple(getattr(plan, name) for name in carried)
        return cls(tuple(atom(pid, *values) for pid in plan.faulty))

    # ------------------------------------------------------------ composition
    def add(self, *faults: Fault) -> "FaultSchedule":
        """A new schedule with additional faults."""
        return FaultSchedule(self.faults + tuple(faults))

    # ---------------------------------------------------------------- surgery
    # The fuzzer's shrinker reduces failing schedules by removing atoms,
    # narrowing windows and lowering adaptive budgets; each operation
    # returns a fresh schedule (atoms are immutable value objects).
    def without_atom(self, index: int) -> "FaultSchedule":
        """A new schedule with the atom at ``index`` removed."""
        if not 0 <= index < len(self.faults):
            raise IndexError(f"atom index {index} out of range for {len(self.faults)} atoms")
        return FaultSchedule(self.faults[:index] + self.faults[index + 1 :])

    def replace_atom(self, index: int, atom: Fault) -> "FaultSchedule":
        """A new schedule with the atom at ``index`` swapped for ``atom``."""
        if not 0 <= index < len(self.faults):
            raise IndexError(f"atom index {index} out of range for {len(self.faults)} atoms")
        return FaultSchedule(self.faults[:index] + (atom,) + self.faults[index + 1 :])

    # ------------------------------------------------------------ node views
    def byzantine_nodes(self) -> Tuple[int, ...]:
        """Adversary-controlled node ids (sorted, unique).

        Adaptive atoms contribute the victims they actually struck — read
        after the run, this is the realised adversary; before it, only the
        statically targeted nodes (see :meth:`max_byzantine` for the
        pre-run bound).
        """
        return tuple(sorted({p for f in self.faults if f.byzantine for p in f.nodes()}))

    def liveness_exempt_nodes(self, end_time: float) -> Tuple[int, ...]:
        """Nodes excused from liveness expectations at ``end_time``, the
        run's final virtual time (sorted, unique).

        A node is exempt if *any* of its faults exempts it: Byzantine
        behaviours do permanently, relay-drop windows never do — a
        dropping relay still receives every flood and keeps committing.

        Exemptions are *window-scoped*: a recovering atom (partition or
        crash-recover window) only exempts its node while
        ``fault.exemption_end() > end_time`` — i.e. until
        ``heal + CATCH_UP_GRACE``.  A run that outlives the grace period
        holds the healed node to the full liveness target again, which is
        what makes catch-up a *checked* invariant rather than a pardon.
        """
        exempt = set()
        for fault in self.faults:
            if fault.liveness_exempt and fault.exemption_end() > end_time:
                exempt.update(fault.nodes())
        return tuple(sorted(exempt))

    def dynamic_budget(self) -> int:
        """Nodes adaptive atoms may strike at run time (0 for static schedules)."""
        return sum(f.dynamic_budget() for f in self.faults)

    def max_byzantine(self) -> int:
        """Pre-run upper bound on adversary-controlled nodes.

        Static Byzantine targets plus every adaptive atom's budget — the
        ``f`` a deployment must provision to run this schedule soundly.
        """
        static = {
            p for f in self.faults if f.byzantine and not f.dynamic_budget() for p in f.nodes()
        }
        return len(static) + self.dynamic_budget()

    def controllers(self) -> Tuple[object, ...]:
        """Fresh session controllers for every adaptive atom (build-time hook)."""
        return tuple(c for f in self.faults if (c := f.controller()) is not None)

    def concurrent_impairment_sets(self) -> List[frozenset]:
        """Every distinct set of nodes simultaneously relay-impaired.

        Sweeps every window boundary of the fault impairment intervals
        (``[start, end)``; zero-length windows impair nobody) — ends as
        well as starts, since a node whose window just closed may depend
        on still-impaired neighbours — and collects the set of impaired
        nodes at each boundary.  The matrix's feasibility check requires
        correct nodes to stay strongly connected with each of these sets
        removed.
        """
        intervals = []
        for fault in self.faults:
            window = fault.impairment()
            if window is not None and window[1] > window[0]:
                intervals.append((fault.node, window[0], window[1]))
        boundaries = sorted(
            {s for _, s, _ in intervals} | {e for _, _, e in intervals if e != math.inf}
        )
        sets: List[frozenset] = []
        for t in boundaries:
            active = frozenset(node for node, s, e in intervals if s <= t < e)
            if active and active not in sets:
                sets.append(active)
        return sets

    # ---------------------------------------------------------- runner hooks
    def replica_behaviour(self, pid: int) -> Optional[Tuple[str, dict]]:
        """The EESMR adversary (behaviour, kwargs) for ``pid``, if any."""
        for fault in self.faults:
            if fault.node == pid:
                b = fault.behaviour()
                if b is not None:
                    return b
        return None

    def failstop_time(self, pid: int) -> Optional[float]:
        """When baseline protocols fail-stop ``pid`` (None = never)."""
        times = [
            fault.failstop_time()
            for fault in self.faults
            if fault.node == pid and fault.failstop_time() is not None
        ]
        return min(times) if times else None

    def install(self, sim, network, replicas) -> None:
        """Arm all network-level fault effects on a built deployment."""
        for fault in self.faults:
            fault.install(sim, network, replicas)

    # -------------------------------------------------------------- reporting
    def describe(self) -> list:
        """Canonical JSON-friendly description for fingerprints and reports."""
        return [f.describe() for f in self.faults]


# --------------------------------------------------------------- constructors
def crash_at(node: int, time: float) -> FaultSchedule:
    """Fail-stop one node at a virtual time."""
    return FaultSchedule((CrashAt(node, time),))


def stall_at(node: int, round_number: Round) -> FaultSchedule:
    """A stalling (no-progress) leader from a steady-state round on."""
    return FaultSchedule((StallAt(node, round_number),))


def equivocate_at(node: int, round_number: Round) -> FaultSchedule:
    """An equivocating leader at a steady-state round."""
    return FaultSchedule((EquivocateAt(node, round_number),))


def silent(node: int) -> FaultSchedule:
    """A silent Byzantine node (never sends, still listens)."""
    return FaultSchedule((SilentFrom(node),))


def drop_window(node: int, start: float, end: float) -> FaultSchedule:
    """A correct node that stops relaying floods during a window."""
    return FaultSchedule((RelayDropWindow(node, start, end),))


def partition(node: int, start: float, heal: float) -> FaultSchedule:
    """Disconnect a node for a window, then heal the partition."""
    return FaultSchedule((PartitionWindow(node, start, heal),))


def crash_recover(node: int, start: float, heal: float) -> FaultSchedule:
    """Power a node off for a window, then reboot it (state intact)."""
    return FaultSchedule((CrashRecoverWindow(node, start, heal),))


def leader_following_crash(budget: int, start: float, interval: float) -> FaultSchedule:
    """An adaptive adversary crashing whichever node the rotation elects."""
    return FaultSchedule((LeaderFollowingCrash(budget=budget, start=start, interval=interval),))


def loss_window(node: int, start: float, end: float, loss: float) -> FaultSchedule:
    """A correct node whose incoming deliveries drop with probability ``loss``."""
    return FaultSchedule((LossWindow(node, start, end, loss),))


def duplicate_window(node: int, start: float, end: float, probability: float) -> FaultSchedule:
    """A correct node receiving duplicated deliveries for a window."""
    return FaultSchedule((DuplicateWindow(node, start, end, probability),))


def jitter_window(node: int, start: float, end: float, jitter: float) -> FaultSchedule:
    """A correct node whose deliveries are jitter-delayed for a window."""
    return FaultSchedule((JitterWindow(node, start, end, jitter),))


# -------------------------------------------------------------- serialization
#: Fault-atom kinds reconstructible from :meth:`Fault.describe` output.
FAULT_KINDS = {
    cls.__name__: cls
    for cls in (
        CrashAt,
        StallAt,
        EquivocateAt,
        SilentFrom,
        RelayDropWindow,
        PartitionWindow,
        CrashRecoverWindow,
        LeaderFollowingCrash,
        LossWindow,
        DuplicateWindow,
        JitterWindow,
    )
}


def fault_from_dict(data: Any) -> Fault:
    """Rebuild one fault atom from its :meth:`Fault.describe` dict."""
    return from_kind(FAULT_KINDS, data, "fault")


def schedule_from_dict(data: Any) -> FaultSchedule:
    """Rebuild a :class:`FaultSchedule` from :meth:`FaultSchedule.describe`.

    Malformed entries — unknown kinds, unexpected fields, values an atom's
    own validation rejects — are reported with the offending entry's index
    (and ``[index].field`` path) so a bad corpus file or ``--spec`` schedule
    names the atom to fix.
    """
    if not isinstance(data, list):
        raise SpecError(f"a fault schedule must be a JSON array, got {data!r}")
    atoms = []
    for index, entry in enumerate(data):
        try:
            atoms.append(fault_from_dict(entry))
        except SpecError as error:
            path = error.under(f"[{index}]").path
            raise SpecError(f"fault entry {index}: {error.message}", path) from error
    return FaultSchedule(tuple(atoms))
