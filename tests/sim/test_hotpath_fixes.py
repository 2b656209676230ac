"""Regression tests for the event-queue cancel/drain fixes and lazy labels."""

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


def test_cancel_after_clear_is_harmless():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None)
    queue.clear()
    event.cancel()
    queue.cancel(event)
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


# ---------------------------------------------------------- drain determinism
def test_drain_survivors_keep_original_ordering_keys():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("a"), label="keep")
    sim.schedule(1.0, lambda: order.append("victim"), label="kill")
    sim.schedule(1.0, lambda: order.append("b"), label="keep")
    sim.schedule(1.0, lambda: order.append("c"), label="keep")
    removed = sim.drain(labels=["kill"])
    assert removed == 1
    sim.run_until_idle()
    assert order == ["a", "b", "c"]


def test_drain_survivor_handles_stay_cancellable():
    # Before the fix, drain re-pushed *clones* of the survivors: cancelling
    # the original handle (what every Timer holds) no longer stopped the
    # event, so a selective drain silently revived cancelled timers.
    sim = Simulator()
    fired = []
    survivor = sim.schedule(2.0, lambda: fired.append("survivor"))
    sim.schedule(1.0, lambda: fired.append("victim"), label="kill")
    sim.drain(labels=["kill"])
    sim.cancel(survivor)
    sim.run_until_idle()
    assert fired == []
    assert sim.pending_events == 0


def test_drain_interleaves_survivors_and_new_events_deterministically():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("old-1"))
    sim.schedule(1.0, lambda: order.append("kill-me"), label="kill")
    sim.schedule(1.0, lambda: order.append("old-2"))
    sim.drain(labels=["kill"])
    sim.schedule(1.0, lambda: order.append("new-after-drain"))
    sim.run_until_idle()
    assert order == ["old-1", "old-2", "new-after-drain"]


def test_full_drain_still_clears_everything():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    removed = sim.drain()
    assert removed == 2
    assert sim.pending_events == 0


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


def test_drain_matches_callable_labels():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("x"), label=lambda: "dynamic")
    sim.drain(labels=["dynamic"])
    sim.run_until_idle()
    assert fired == []
