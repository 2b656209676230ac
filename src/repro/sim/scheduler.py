"""The virtual-time simulator driving every experiment in the reproduction.

The simulator is a classic discrete-event loop: events are executed in
timestamp order, each event may schedule further events, and virtual time
jumps directly from one event to the next.  The protocols in
:mod:`repro.core` never read wall-clock time; they only observe
``Simulator.now`` and the timers built on top of it, which makes runs fully
deterministic for a given seed and topology.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.events import INF, BucketedEventQueue, Event


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly (e.g. time travel)."""


class Simulator:
    """Deterministic discrete-event scheduler with a virtual clock.

    Setting :attr:`trace_enabled` appends every executed event to
    :attr:`trace_log` as a ``(time, label)`` tuple (``TraceRecorder``
    does, for the golden fingerprints).
    """

    def __init__(self) -> None:
        self._queue = BucketedEventQueue()
        self._now = 0.0
        self._running = False
        self._executed = 0
        self.trace_enabled = False
        self.trace_log: list[tuple[float, str]] = []

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (useful for budget assertions)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return len(self._queue)

    # ------------------------------------------------------------ scheduling
    def schedule_at(
        self, time: float, callback: Callable[..., None], label: str, args: tuple
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if not self._now <= time < INF:
            raise SimulationError(
                f"cannot schedule event at {time}: in the past (now={self._now}) or not finite"
            )
        return self._queue.push(time, callback, label, args)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        label: str,
        args: tuple = (),
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` units of virtual time.

        Pass per-event state through ``args`` rather than closing over it:
        the event is then the only object the schedule allocates.
        """
        if not 0.0 <= delay < INF:
            raise SimulationError(f"delay {delay} is negative or not finite")
        # Push directly rather than via schedule_at: this is the hottest
        # call in the simulator and delay >= 0 already implies time >= now.
        return self._queue.push(self._now + delay, callback, label, args)

    def move(self, event: Event, delay: float) -> bool:
        """Move a pending ``event`` to fire ``delay`` from now, if that is no earlier.

        The handle stays valid and takes a fresh ``seq``, so it fires where
        a cancel + :meth:`schedule` would have put a new event.  Returns
        ``False``, changing nothing, for an earlier or non-finite deadline
        or an event that is no longer pending: cancel and schedule instead.
        """
        return self._queue.move(event, self._now + delay)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self._queue.cancel(event)

    # --------------------------------------------------------------- running
    def run(
        self,
        until: float = INF,
        stop: Optional[Callable[[], bool]] = None,
        *,
        max_events: int,
    ) -> bool:
        """Execute events in order until none is due at or before ``until``.

        ``stop``, when given, is called before each event, and the run
        pauses as soon as it returns true.  A run that reaches a finite
        ``until`` advances the clock to it, even when the queue drained
        first.  ``max_events`` caps :attr:`executed_events`: the event that
        would pass it raises :class:`SimulationError` (a runaway protocol)
        before it runs.  Returns ``False`` when ``stop`` paused the run.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        pop = self._queue.pop
        try:
            # The one loop that executes events: one pop per event.
            while stop is None or not stop():
                event = pop(until)
                if event is None:
                    if self._now < until < INF:
                        self._now = until
                    return True
                if self._executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
                if event.time < self._now:
                    raise SimulationError("event queue returned an event from the past")
                self._now = event.time
                self._executed += 1
                if self.trace_enabled:
                    self.trace_log.append((self._now, event.label))
                event.callback(*event.args)
            return False
        finally:
            self._running = False
            if not self._queue:
                # Nothing live is left, so every entry still queued is a
                # cancelled one (a run that stops at ``until`` leaves those
                # past it).  Each keeps its callback, a timer's bound method,
                # and the timer keeps this simulator: drop them, or a
                # finished run is a reference cycle.
                self._queue.clear()
