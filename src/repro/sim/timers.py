"""Cancellable, restartable timers built on top of the simulator.

EESMR and the baseline protocols are timer-heavy: ``T_blame`` (progress
timer), ``T_commit(block)`` (the 4Δ quiet period), the 5Δ/8Δ/6Δ waits of the
view change.  This module gives protocol code a small, explicit API —
start / restart / cancel / cancel-all — that mirrors how the pseudo-code in
Algorithm 2 manipulates its timers.

Restarting a running :class:`Timer` or :class:`TimerRegistry` key to a
deadline no earlier than its pending one *moves* the pending event
(``Simulator.move``): every block restarts ``T_blame`` on every node,
OptSync re-arms a block's ``T_commit`` on its responsive quorum, and a
move leaves one queue entry per timer where cancel + push left one per
restart.  An earlier deadline cancels and schedules anew.  Either way the
timer fires at the same ``(time, seq)`` a cancel + push would give.
Durations must be finite and non-negative (``ValueError``, checked before
anything is scheduled).
"""

from __future__ import annotations

import weakref
from types import MethodType
from typing import Any, Callable, Dict, Hashable, Optional

from repro.sim.events import INF, Event
from repro.sim.scheduler import Simulator


class Timer:
    """A single named timer.

    A timer can be (re)started any number of times; restarting supersedes
    the previous deadline.  The callback fires exactly once per start unless
    the timer is cancelled or restarted first.

    A bound-method callback is held as a weak reference to its owner plus
    the plain function, so an owner that keeps its own timer (a replica's
    ``T_blame``) forms no reference cycle and is freed by reference count
    once its run is dropped; a timer whose owner is gone fires as a no-op.
    Any other callable (a lambda, a function) is held strongly.
    """

    def __init__(self, sim: Simulator, name: str, callback: Callable[[], None]) -> None:
        self._sim = sim
        self.name = name
        self._owner: Optional[weakref.ref] = None
        self._callback: Callable[..., None] = callback
        if isinstance(callback, MethodType):
            self._owner = weakref.ref(callback.__self__)
            self._callback = callback.__func__
        self._label = f"timer:{name}"
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        """Whether the timer is armed and has not fired or been cancelled."""
        return self._event is not None and self._event.active

    def start(self, duration: float) -> None:
        """Arm (or re-arm) the timer to fire ``duration`` from now.

        Re-arming a running timer to a deadline no earlier than the pending
        one moves its pending event rather than cancelling it and
        scheduling another.
        """
        if not 0.0 <= duration < INF:
            raise ValueError(f"timer {self.name}: duration {duration} is negative or not finite")
        sim = self._sim
        event = self._event
        if event is not None and not event.cancelled:
            if sim.move(event, duration):
                return
            sim.cancel(event)
        self._event = sim.schedule(duration, self._fire, label=self._label)

    def cancel(self) -> None:
        """Disarm the timer if it is running."""
        if self._event is not None and self._event.active:
            self._sim.cancel(self._event)
        self._event = None

    def _fire(self) -> None:
        self._event = None
        if self._owner is None:
            self._callback()
        elif (owner := self._owner()) is not None:
            self._callback(owner)


class TimerRegistry:
    """A keyed collection of timers, e.g. one ``T_commit`` per block hash.

    The registry mirrors the protocol pseudo-code operations "set
    T_commit(B)", "cancel all commit timers T_commit(.)" with an explicit,
    testable object.  An armed timer *is* its pending simulator event: the
    registry maps each key to that event and the event carries the callback
    and its arguments, so arming allocates nothing else.  An entry leaves
    when its timer fires or is cancelled, so every operation costs
    O(armed), not O(timers ever started): a replica starts one ``T_commit``
    per block, or, on EESMR, one per run of blocks a delivery accepts.
    """

    def __init__(self, sim: Simulator, prefix: str) -> None:
        self._sim = sim
        self._prefix = prefix
        #: The label of an untraced timer event; a traced one names its key.
        self._label = f"timer:{prefix}"
        self._timers: Dict[Hashable, Event] = {}

    def __len__(self) -> int:
        return len(self._timers)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._timers

    def start(
        self, key: Hashable, duration: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Start (or restart) the timer for ``key``; it calls ``callback(*args)``.

        Like :meth:`Timer.start`, a restart to a deadline no earlier than
        the pending one moves the pending event; an earlier one cancels it
        and schedules anew.
        """
        if not 0.0 <= duration < INF:
            raise ValueError(
                f"timer {self._prefix}:{key}: duration {duration} is negative or not finite"
            )
        sim = self._sim
        timers = self._timers
        label = f"timer:{self._prefix}:{key}" if sim.trace_enabled else self._label
        event = timers.get(key)
        if event is not None and sim.move(event, duration):
            # A restart is the key's latest start (``running_keys`` order).
            del timers[key]
            event.label = label
            event.args = (key, callback, args)
            timers[key] = event
            return
        self.cancel(key)
        timers[key] = sim.schedule(duration, self._fire, label, (key, callback, args))

    def _fire(self, key: Hashable, callback: Callable[..., None], args: tuple) -> None:
        del self._timers[key]
        callback(*args)

    def cancel(self, key: Hashable) -> None:
        """Cancel the timer for ``key`` if it is armed."""
        event = self._timers.pop(key, None)
        if event is not None:
            self._sim.cancel(event)

    def cancel_all(self) -> int:
        """Cancel every running timer; returns how many were cancelled."""
        cancelled = len(self._timers)
        for event in self._timers.values():
            self._sim.cancel(event)
        self._timers.clear()
        return cancelled

    def running_keys(self) -> list[Hashable]:
        """Keys of all currently armed timers, in the order they were started."""
        return list(self._timers)
