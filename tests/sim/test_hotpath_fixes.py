"""Regression tests for the event-queue cancel fixes."""

from repro.sim.events import BucketedEventQueue
from repro.sim.scheduler import Simulator


# ------------------------------------------------------------ cancel fixes
def test_cancel_after_pop_does_not_corrupt_live_count():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None, "")
    queue.push(2.0, lambda: None, "")
    popped = queue.pop()
    assert popped is event
    queue.cancel(event)  # already executed: must be a no-op for len()
    assert len(queue) == 1
    assert queue.pop() is not None
    assert len(queue) == 0


def test_double_cancel_via_event_then_queue():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None, "")
    event.cancel()
    queue.cancel(event)
    assert len(queue) == 0
    assert queue.pop() is None


def test_direct_event_cancel_updates_queue_length():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None, "")
    assert len(queue) == 1
    event.cancel()  # not via queue.cancel — still must keep len() honest
    assert len(queue) == 0


def test_pending_events_accurate_after_mixed_cancels():
    sim = Simulator()
    kept = sim.schedule(1.0, lambda: None, "")
    dropped = sim.schedule(1.0, lambda: None, "")
    fired = sim.schedule(0.5, lambda: None, "")
    sim.run(stop=lambda: sim.executed_events == 1, max_events=1_000_000)
    sim.cancel(fired)  # cancel of an already-fired event
    sim.cancel(dropped)
    sim.cancel(dropped)  # double cancel
    assert sim.pending_events == 1
    sim.run(max_events=1_000_000)
    assert sim.pending_events == 0
    assert kept.cancelled is False
