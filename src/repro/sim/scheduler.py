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

    Args:
        trace: When true, every executed event is appended to
            :attr:`trace_log` as ``(time, label)`` tuples.  Traces are used
            by the integration tests to assert protocol phase ordering.
    """

    def __init__(self, trace: bool = False) -> None:
        self._queue = BucketedEventQueue()
        self._now = 0.0
        self._running = False
        self._executed = 0
        self.trace_enabled = trace
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

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next live event, or ``None`` when idle."""
        return self._queue.peek_time()

    # ------------------------------------------------------------ scheduling
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        label: str = "",
        args: tuple = (),
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
        label: str = "",
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
    def step(self) -> bool:
        """Execute the single next event.  Returns ``False`` when idle."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError("event queue returned an event from the past")
        self._now = event.time
        self._executed += 1
        if self.trace_enabled:
            label = event.label
            if callable(label):
                label = label()
            self.trace_log.append((self._now, label))
        event.callback(*event.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run the event loop.

        Args:
            until: Stop once virtual time would exceed this bound.  The clock
                is advanced to ``until`` when the queue drains earlier.
            max_events: Safety valve for runaway protocols; raises
                :class:`SimulationError` when exceeded.
        """
        if until is not None:
            self.run_until(until, max_events=max_events)
            return
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed_here = 0
        pop = self._queue.pop
        try:
            # The unbounded loop (run_until_idle, the hot case): one pop
            # per event — no peek, no ``step()`` frame.
            while True:
                event = pop()
                if event is None:
                    break
                if event.time < self._now:
                    raise SimulationError("event queue returned an event from the past")
                self._now = event.time
                self._executed += 1
                if self.trace_enabled:
                    label = event.label
                    if callable(label):
                        label = label()
                    self.trace_log.append((self._now, label))
                event.callback(*event.args)
                executed_here += 1
                if max_events is not None and executed_here > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
        finally:
            self._running = False

    def run_until(self, deadline: float, max_events: Optional[int] = None) -> int:
        """Run every event scheduled at or before ``deadline``; returns the count.

        The time-bounded twin of :meth:`run`'s loop: one peek/pop pair per
        event on locally bound queue methods.  The clock is advanced to
        ``deadline`` when the queue drains (or holds only later events), exactly like
        ``run(until=deadline)`` — which delegates here.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed_here = 0
        queue = self._queue
        peek = queue.peek_time
        pop = queue.pop
        try:
            while True:
                next_time = peek()
                if next_time is None or next_time > deadline:
                    break
                event = pop()
                if event.time < self._now:
                    raise SimulationError("event queue returned an event from the past")
                self._now = event.time
                self._executed += 1
                if self.trace_enabled:
                    label = event.label
                    if callable(label):
                        label = label()
                    self.trace_log.append((self._now, label))
                event.callback(*event.args)
                executed_here += 1
                if max_events is not None and executed_here > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
            if deadline > self._now:
                self._now = deadline
        finally:
            self._running = False
        return executed_here

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Run until no events remain (bounded by ``max_events``)."""
        self.run(until=None, max_events=max_events)
