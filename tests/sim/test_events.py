"""Unit tests for the event queue."""

import pytest

from repro.sim.events import BucketedEventQueue


def test_push_and_pop_in_time_order():
    queue = BucketedEventQueue()
    fired = []
    queue.push(3.0, lambda: fired.append("c"), "")
    queue.push(1.0, lambda: fired.append("a"), "")
    queue.push(2.0, lambda: fired.append("b"), "")
    while queue:
        queue.pop().callback()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fifo_by_sequence():
    queue = BucketedEventQueue()
    order = []
    for i in range(5):
        queue.push(1.0, lambda i=i: order.append(i), "")
    while queue:
        queue.pop().callback()
    assert order == [0, 1, 2, 3, 4]


def test_cancel_skips_event():
    queue = BucketedEventQueue()
    fired = []
    event = queue.push(1.0, lambda: fired.append("x"), "")
    queue.push(2.0, lambda: fired.append("y"), "")
    queue.cancel(event)
    while queue:
        queue.pop().callback()
    assert fired == ["y"]


def test_cancel_updates_length():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None, "")
    assert len(queue) == 1
    queue.cancel(event)
    assert len(queue) == 0


def test_double_cancel_does_not_corrupt_count():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None, "")
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_pop_until_ignores_cancelled():
    queue = BucketedEventQueue()
    first = queue.push(1.0, lambda: None, "")
    second = queue.push(2.0, lambda: None, "")
    queue.cancel(first)
    assert queue.pop(until=1.5) is None
    assert queue.pop(until=2.0) is second


def test_negative_time_rejected():
    queue = BucketedEventQueue()
    with pytest.raises(ValueError):
        queue.push(-1.0, lambda: None, "")


def test_pop_empty_returns_none():
    assert BucketedEventQueue().pop() is None


def test_event_active_flag():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None, "")
    assert event.active
    event.cancel()
    assert not event.active


def test_push_carries_args_and_defaults_to_empty():
    queue = BucketedEventQueue()
    bare = queue.push(1.0, lambda: None, "")
    loaded = queue.push(2.0, lambda a, b: None, "", args=(1, "two"))
    assert bare.args == ()
    assert loaded.args == (1, "two")
    assert queue.pop() is bare
    assert queue.pop() is loaded
