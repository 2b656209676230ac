"""Cancellable, resettable timers built on top of the simulator.

EESMR and the baseline protocols are timer-heavy: ``T_blame`` (progress
timer), ``T_commit(block)`` (the 4Δ quiet period), the 5Δ/8Δ/6Δ waits of the
view change.  This module gives protocol code a small, explicit API —
start / restart / cancel / cancel-all — that mirrors how the pseudo-code in
Algorithm 2 manipulates its timers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional

from repro.sim.events import Event
from repro.sim.scheduler import Simulator


class Timer:
    """A single named timer.

    A timer can be (re)started any number of times; restarting cancels the
    previous deadline.  The callback fires exactly once per start unless the
    timer is cancelled first.
    """

    def __init__(self, sim: Simulator, name: str, callback: Callable[[], None]) -> None:
        self._sim = sim
        self.name = name
        self._callback = callback
        self._label = f"timer:{name}"
        self._event: Optional[Event] = None
        self.fired = False

    @property
    def running(self) -> bool:
        """Whether the timer is armed and has not fired or been cancelled."""
        return self._event is not None and self._event.active

    def start(self, duration: float) -> None:
        """Arm (or re-arm) the timer to fire ``duration`` from now."""
        if duration < 0:
            raise ValueError(f"timer {self.name}: negative duration {duration}")
        event = self._event
        if event is not None:
            if not event.cancelled:
                self._sim.cancel(event)
            self._event = None
        self.fired = False
        self._event = self._sim.schedule(duration, self._fire, label=self._label)

    def cancel(self) -> None:
        """Disarm the timer if it is running."""
        if self._event is not None and self._event.active:
            self._sim.cancel(self._event)
        self._event = None

    def _fire(self) -> None:
        self._event = None
        self.fired = True
        self._callback()


class TimerRegistry:
    """A keyed collection of timers, e.g. one ``T_commit`` per block hash.

    The registry mirrors the protocol pseudo-code operations "set
    T_commit(B)", "cancel all commit timers T_commit(.)" with an explicit,
    testable object.  An armed timer *is* its pending simulator event: the
    registry maps each key to that event and the event carries the callback
    and its arguments, so arming allocates nothing else.  An entry leaves
    when its timer fires or is cancelled, so every operation costs
    O(armed), not O(timers ever started): a replica starts one ``T_commit``
    per block.
    """

    def __init__(self, sim: Simulator, prefix: str = "timer") -> None:
        self._sim = sim
        self._prefix = prefix
        self._timers: Dict[Hashable, Event] = {}

    def __len__(self) -> int:
        return len(self._timers)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._timers

    def start(
        self, key: Hashable, duration: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Start (or restart) the timer for ``key``; it calls ``callback(*args)``."""
        if duration < 0:
            raise ValueError(f"timer {self._prefix}:{key}: negative duration {duration}")
        self.cancel(key)
        self._timers[key] = self._sim.schedule(
            duration,
            self._fire,
            label=f"timer:{self._prefix}:{key}",
            args=(key, callback, args),
        )

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
