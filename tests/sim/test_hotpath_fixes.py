"""Regression tests for the event-queue cancel fixes and lazy labels."""

from repro.sim.events import BucketedEventQueue
from repro.sim.scheduler import Simulator


# ------------------------------------------------------------ cancel fixes
def test_cancel_after_pop_does_not_corrupt_live_count():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    popped = queue.pop()
    assert popped is event
    queue.cancel(event)  # already executed: must be a no-op for len()
    assert len(queue) == 1
    assert queue.pop() is not None
    assert len(queue) == 0


def test_double_cancel_via_event_then_queue():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None)
    event.cancel()
    queue.cancel(event)
    assert len(queue) == 0
    assert queue.pop() is None


def test_direct_event_cancel_updates_queue_length():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None)
    assert len(queue) == 1
    event.cancel()  # not via queue.cancel — still must keep len() honest
    assert len(queue) == 0


def test_pending_events_accurate_after_mixed_cancels():
    sim = Simulator()
    kept = sim.schedule(1.0, lambda: None)
    dropped = sim.schedule(1.0, lambda: None)
    fired = sim.schedule(0.5, lambda: None)
    sim.step()
    sim.cancel(fired)  # cancel of an already-fired event
    sim.cancel(dropped)
    sim.cancel(dropped)  # double cancel
    assert sim.pending_events == 1
    sim.run_until_idle()
    assert sim.pending_events == 0
    assert kept.cancelled is False


# --------------------------------------------------------------- lazy labels
def test_callable_labels_resolved_only_when_tracing():
    calls = []

    def lazy_label():
        calls.append(1)
        return "expensive-label"

    sim = Simulator(trace=False)
    sim.schedule(1.0, lambda: None, label=lazy_label)
    sim.run_until_idle()
    assert calls == []

    traced = Simulator(trace=True)
    traced.schedule(1.0, lambda: None, label=lazy_label)
    traced.run_until_idle()
    assert calls == [1]
    assert traced.trace_log == [(1.0, "expensive-label")]
