"""Unit tests for the event queue."""

import pytest

from repro.sim.events import BucketedEventQueue


def test_push_and_pop_in_time_order():
    queue = BucketedEventQueue()
    fired = []
    queue.push(3.0, lambda: fired.append("c"))
    queue.push(1.0, lambda: fired.append("a"))
    queue.push(2.0, lambda: fired.append("b"))
    while queue:
        queue.pop().callback()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fifo_by_sequence():
    queue = BucketedEventQueue()
    order = []
    for i in range(5):
        queue.push(1.0, lambda i=i: order.append(i))
    while queue:
        queue.pop().callback()
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_ties_before_sequence():
    queue = BucketedEventQueue()
    order = []
    queue.push(1.0, lambda: order.append("low"), priority=5)
    queue.push(1.0, lambda: order.append("high"), priority=0)
    while queue:
        queue.pop().callback()
    assert order == ["high", "low"]


def test_cancel_skips_event():
    queue = BucketedEventQueue()
    fired = []
    event = queue.push(1.0, lambda: fired.append("x"))
    queue.push(2.0, lambda: fired.append("y"))
    queue.cancel(event)
    while queue:
        queue.pop().callback()
    assert fired == ["y"]


def test_cancel_updates_length():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None)
    assert len(queue) == 1
    queue.cancel(event)
    assert len(queue) == 0


def test_double_cancel_does_not_corrupt_count():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_peek_time_ignores_cancelled():
    queue = BucketedEventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(first)
    assert queue.peek_time() == 2.0


def test_negative_time_rejected():
    queue = BucketedEventQueue()
    with pytest.raises(ValueError):
        queue.push(-1.0, lambda: None)


def test_pop_empty_returns_none():
    assert BucketedEventQueue().pop() is None


def test_clear_empties_queue():
    queue = BucketedEventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert not queue
    assert queue.pop() is None


def test_event_active_flag():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None)
    assert event.active
    event.cancel()
    assert not event.active


def test_push_carries_args_and_defaults_to_empty():
    queue = BucketedEventQueue()
    bare = queue.push(1.0, lambda: None)
    loaded = queue.push(2.0, lambda a, b: None, args=(1, "two"))
    assert bare.args == ()
    assert loaded.args == (1, "two")
    assert queue.pop() is bare
    assert queue.pop() is loaded


def test_args_survive_remove_where_with_original_keys():
    queue = BucketedEventQueue()
    events = [queue.push(1.0 + i % 2, print, label=str(i), args=(i,)) for i in range(6)]
    keys = {event.seq: (event.time, event.priority, event.seq) for event in events}
    assert queue.remove_where(lambda event: event.args[0] in (1, 4)) == 2
    survivors = []
    while (event := queue.pop()) is not None:
        survivors.append(event)
    assert [event.args for event in survivors] == [(0,), (2,), (3,), (5,)]
    assert all(keys[e.seq] == (e.time, e.priority, e.seq) for e in survivors)
