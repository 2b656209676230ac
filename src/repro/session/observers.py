"""The unified observer protocol for experiment sessions.

A :class:`SessionObserver` is how anything outside the substrates
follows a run — the :class:`~repro.testkit.trace.TraceRecorder`, the SLO
metrics, the energy timeline, the recovery event stream.  One contract,
six hooks:

* ``on_session_start(session)`` — the deployment is built, nothing has
  run yet; attach to live substrates here;
* ``on_block_commit(pid, block, view, time)`` — a replica committed a
  block (fired once per newly committed block, in commit order);
* ``on_view_change(pid, view, time)`` — a replica completed a view change
  and entered ``view``;
* ``on_fault_window(node, kind, active, time)`` — a network-level fault
  window opened (``active=True``) or closed on ``node``; adaptive
  adversary strikes also arrive here;
* ``on_recovery(node, event, detail, time)`` — a step of a recovering
  node's catch-up (see :meth:`SessionObserver.on_recovery`);
* ``on_session_end(session, result)`` — the run is quiescent and the
  :class:`~repro.session.spec.RunResult` is assembled; enrich it here.

Observers are registered on a :class:`SessionBuilder` (or directly on an
:class:`ObserverBus`) and are always invoked in registration order.
Hooks an observer does not override cost nothing at run time: the bus
wires a dispatch into the network or the replicas only when at least one
registered observer actually overrides the corresponding hook, so the
plain one-shot path stays byte-identical and hook-free.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple


class SessionObserver:
    """Base class for session observers; override only what you need."""

    def on_session_start(self, session) -> None:
        """The deployment is built; the simulation has not started."""

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

    def on_session_end(self, session, result) -> None:
        """The run is quiescent and ``result`` is assembled."""


#: The hook names an observer may override: the ``on_*`` methods of
#: :class:`SessionObserver`, in definition (= dispatch) order.
OBSERVER_HOOKS = tuple(name for name in vars(SessionObserver) if name.startswith("on_"))


class ObserverBus:
    """Fan-out dispatcher over registered observers (registration order).

    The bus is what the substrates see: the network's fault hook, the
    replicas' commit/view-change hooks and the recovery controllers all
    call bus methods.  ``overrides(hook)`` lets the builder wire a
    dispatch only where some observer actually listens, so un-observed
    sessions pay nothing.
    """

    def __init__(self, observers: List[SessionObserver]) -> None:
        self._observers: List[SessionObserver] = []
        for observer in observers:
            self.register(observer)

    def register(self, observer: SessionObserver) -> SessionObserver:
        """Add an observer; hooks fire in registration order."""
        self._observers.append(observer)
        return observer

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


class EnergyTimelineObserver(SessionObserver):
    """Per-commit energy samples from the cluster ledger.

    Samples ``total_joules()`` at the start, at every block commit and at
    the end, yielding an energy-vs-progress timeline.
    """

    def __init__(self) -> None:
        self._ledger = None
        self.samples: List[Tuple[float, str, float]] = []

    def on_session_start(self, session) -> None:
        self._ledger = session.ledger
        self.samples.append((session.sim.now, "start", self._ledger.total_joules()))

    def on_block_commit(self, pid: int, block, view: int, time: float) -> None:
        self.samples.append((time, f"commit:{pid}:h{block.height}", self._ledger.total_joules()))

    def on_session_end(self, session, result) -> None:
        self.samples.append((session.sim.now, "end", self._ledger.total_joules()))

    def joules_between(self, start: float, end: float) -> float:
        """Energy spent in the virtual-time window ``[start, end]``."""
        inside = [j for t, _, j in self.samples if start <= t <= end]
        if not inside:
            return 0.0
        return max(inside) - min(inside)
