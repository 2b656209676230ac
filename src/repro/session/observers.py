"""The unified observer protocol for experiment sessions.

Before this module, every consumer of run-time information tapped the
substrates its own way: the :class:`~repro.testkit.trace.TraceRecorder`
flipped the simulator's trace flag and harvested state after quiescence,
perf counters sampled caches around whole runs, and the energy ledger was
read only at collection time.  A :class:`SessionObserver` gives all of
them one contract:

* ``on_session_start(session)`` — the deployment is built, nothing has
  run yet; attach to live substrates here;
* ``on_event(time, label)`` — one simulator event executed;
* ``on_block_commit(pid, block, view, time)`` — a replica committed a
  block (fired once per newly committed block, in commit order);
* ``on_view_change(pid, view, time)`` — a replica completed a view change
  and entered ``view``;
* ``on_fault_window(node, kind, active, time)`` — a network-level fault
  window opened (``active=True``) or closed on ``node``; adaptive
  adversary strikes also arrive here;
* ``on_session_end(session, result)`` — the run is quiescent and the
  :class:`~repro.eval.runner.RunResult` is assembled; enrich it here.

Observers are registered on a :class:`SessionBuilder` (or directly on an
:class:`ObserverBus`) and are always invoked in registration order.
Hooks an observer does not override cost nothing at run time: the bus
wires a dispatch into the simulator, network or replicas only when at
least one registered observer actually overrides the corresponding hook,
so the plain one-shot path stays byte-identical and hook-free.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple


class SessionObserver:
    """Base class for session observers; override only what you need."""

    def on_session_start(self, session) -> None:
        """The deployment is built; the simulation has not started."""

    def on_event(self, time: float, label: str) -> None:
        """One simulator event was executed."""

    def on_block_commit(self, pid: int, block, view: int, time: float) -> None:
        """Replica ``pid`` committed ``block`` while in ``view``."""

    def on_view_change(self, pid: int, view: int, time: float) -> None:
        """Replica ``pid`` completed a view change into ``view``."""

    def on_fault_window(self, node: int, kind: str, active: bool, time: float) -> None:
        """A fault window on ``node`` opened (``active``) or closed."""

    def on_recovery(self, node: int, event: str, detail: dict, time: float) -> None:
        """A catch-up lifecycle event for a recovering ``node``.

        ``event`` is one of ``sync_started``, ``sync_request``,
        ``sync_timeout``, ``sync_retry``, ``caught_up``, ``gave_up``;
        ``detail`` carries event-specific fields (peer, attempt, backoff
        delay, heights).  Fired by the
        :class:`~repro.recovery.controller.RecoveryController`.
        """

    def on_retransmit(self, node: int, event: str, detail: str, time: float) -> None:
        """A reliable-delivery lifecycle event for a lossy hop to ``node``.

        ``event`` is one of ``retry`` (a dropped delivery is being
        retransmitted), ``recovered`` (a retransmitted copy got through
        and was ACKed) or ``gave_up`` (the retry budget is exhausted);
        ``detail`` is a human-readable description of the hop.  Fired by
        the network's reliable sublayer under wire impairments
        (:mod:`repro.net.impairment`).
        """

    def on_session_end(self, session, result) -> None:
        """The run is quiescent and ``result`` is assembled."""


#: The hook names an observer may override, in dispatch order.
OBSERVER_HOOKS = (
    "on_session_start",
    "on_event",
    "on_block_commit",
    "on_view_change",
    "on_fault_window",
    "on_recovery",
    "on_retransmit",
    "on_session_end",
)


class ObserverBus:
    """Fan-out dispatcher over registered observers (registration order).

    The bus is what the substrates see: the simulator's event hook, the
    network's fault hook and the replicas' commit/view-change hooks all
    point at bus methods.  ``overrides(hook)`` lets the builder wire a
    dispatch only where some observer actually listens, so un-observed
    sessions pay nothing.
    """

    def __init__(self, observers: Optional[List[SessionObserver]] = None) -> None:
        self._observers: List[SessionObserver] = []
        for observer in observers or ():
            self.register(observer)

    def register(self, observer: SessionObserver) -> SessionObserver:
        """Add an observer; hooks fire in registration order."""
        self._observers.append(observer)
        return observer

    @property
    def observers(self) -> Tuple[SessionObserver, ...]:
        return tuple(self._observers)

    def __len__(self) -> int:
        return len(self._observers)

    def overrides(self, hook: str) -> bool:
        """Whether any registered observer overrides ``hook``.

        Checks the instance first (callback-style observers bind hooks as
        instance attributes) and the class second (subclass overrides).
        """
        base = getattr(SessionObserver, hook)
        for observer in self._observers:
            if hook in observer.__dict__:
                return True
            if getattr(type(observer), hook, base) is not base:
                return True
        return False

    # ------------------------------------------------------------- dispatch
    def session_start(self, session) -> None:
        for observer in self._observers:
            observer.on_session_start(session)

    def event(self, time: float, label: str) -> None:
        for observer in self._observers:
            observer.on_event(time, label)

    def block_commit(self, pid: int, block, view: int, time: float) -> None:
        for observer in self._observers:
            observer.on_block_commit(pid, block, view, time)

    def view_change(self, pid: int, view: int, time: float) -> None:
        for observer in self._observers:
            observer.on_view_change(pid, view, time)

    def fault_window(self, node: int, kind: str, active: bool, time: float) -> None:
        for observer in self._observers:
            observer.on_fault_window(node, kind, active, time)

    def recovery(self, node: int, event: str, detail: dict, time: float) -> None:
        for observer in self._observers:
            observer.on_recovery(node, event, detail, time)

    def retransmit(self, node: int, event: str, detail: str, time: float) -> None:
        for observer in self._observers:
            observer.on_retransmit(node, event, detail, time)

    def session_end(self, session, result) -> None:
        for observer in self._observers:
            observer.on_session_end(session, result)


class CallbackObserver(SessionObserver):
    """An observer built from keyword callbacks (handy in tests and demos).

    Example::

        CallbackObserver(on_view_change=lambda pid, view, t: print(pid, view))
    """

    def __init__(self, **callbacks: Callable[..., Any]) -> None:
        unknown = set(callbacks) - set(OBSERVER_HOOKS)
        if unknown:
            raise ValueError(f"unknown observer hooks {sorted(unknown)}; known: {OBSERVER_HOOKS}")
        # Bound as instance attributes so ``ObserverBus.overrides`` sees
        # exactly the hooks the caller supplied.
        for name, fn in callbacks.items():
            setattr(self, name, fn)


class PerfObserver(SessionObserver):
    """Live protocol/perf counters re-registered through the observer bus.

    In-flight visibility instead of "run it, then diff the stats objects":
    event counts by label prefix, commits and view changes per node,
    fault-window transitions.
    """

    def __init__(self) -> None:
        self.events = 0
        self.events_by_prefix: dict = {}
        self.commits_by_node: dict = {}
        self.view_changes_by_node: dict = {}
        self.fault_transitions: List[Tuple[float, int, str, bool]] = []

    def on_event(self, time: float, label: str) -> None:
        self.events += 1
        prefix = label.split(":", 1)[0]
        self.events_by_prefix[prefix] = self.events_by_prefix.get(prefix, 0) + 1

    def on_block_commit(self, pid: int, block, view: int, time: float) -> None:
        self.commits_by_node[pid] = self.commits_by_node.get(pid, 0) + 1

    def on_view_change(self, pid: int, view: int, time: float) -> None:
        self.view_changes_by_node[pid] = self.view_changes_by_node.get(pid, 0) + 1

    def on_fault_window(self, node: int, kind: str, active: bool, time: float) -> None:
        self.fault_transitions.append((time, node, kind, active))

    def summary(self) -> dict:
        """A plain-dict snapshot (JSON-safe, sorted for reproducibility)."""
        return {
            "events": self.events,
            "events_by_prefix": dict(sorted(self.events_by_prefix.items())),
            "commits_by_node": dict(sorted(self.commits_by_node.items())),
            "view_changes_by_node": dict(sorted(self.view_changes_by_node.items())),
            "fault_transitions": list(self.fault_transitions),
        }


class EnergyTimelineObserver(SessionObserver):
    """Per-commit energy samples from the cluster ledger.

    The energy ledger used to be visible only as a post-run report; this
    observer samples ``total_joules()`` at every block commit (and at every
    fault-window edge), yielding the energy-vs-progress timeline the
    adaptive-adversary analysis plots.
    """

    def __init__(self) -> None:
        self._ledger = None
        self.samples: List[Tuple[float, str, float]] = []

    def on_session_start(self, session) -> None:
        self._ledger = session.ledger
        self.samples.append((session.sim.now, "start", self._ledger.total_joules()))

    def on_block_commit(self, pid: int, block, view: int, time: float) -> None:
        self.samples.append((time, f"commit:{pid}:h{block.height}", self._ledger.total_joules()))

    def on_fault_window(self, node: int, kind: str, active: bool, time: float) -> None:
        edge = "open" if active else "close"
        self.samples.append((time, f"fault:{kind}:{edge}@{node}", self._ledger.total_joules()))

    def on_session_end(self, session, result) -> None:
        self.samples.append((session.sim.now, "end", self._ledger.total_joules()))

    def joules_between(self, start: float, end: float) -> float:
        """Energy spent in the virtual-time window ``[start, end]``."""
        inside = [j for t, _, j in self.samples if start <= t <= end]
        if not inside:
            return 0.0
        return max(inside) - min(inside)
