"""BucketedEventQueue: total order, cancellation, tier migration.

The bucketed queue is the simulator's only queue; its contract is "pops
come out in ``(time, seq)`` order, seq being push order".  The
oracle here is that contract itself — ``sorted()`` over the pushed keys —
and, byte-for-byte at the trace level, the golden fingerprints in
``tests/testkit/test_golden_fingerprints.py``, which were captured on a
single binary heap.
"""

import random

import pytest

from repro.sim.events import BucketedEventQueue


def drain_order(queue):
    order = []
    while True:
        event = queue.pop()
        if event is None:
            return order
        order.append((event.time, event.seq))


def test_orders_identically_to_the_binary_heap():
    rng = random.Random(7)
    times = [round(rng.uniform(0.0, 50.0), 2) for _ in range(500)]
    # Deliberate exact ties: the seq tie-break must decide.
    times += [5.0] * 20
    queue = BucketedEventQueue()
    pushed = []
    for time in times:
        event = queue.push(time, lambda: None)
        pushed.append((time, event.seq))
    assert [seq for _, seq in pushed] == list(range(len(times)))
    assert drain_order(queue) == sorted(pushed)


def test_interleaved_push_pop_matches_heap():
    """Pushes landing in the *current* bucket while it drains stay ordered.

    Callbacks only schedule at or after their own time, so the whole pop
    sequence must equal ``sorted()`` over every key ever pushed.
    """
    rng = random.Random(23)
    queue = BucketedEventQueue()
    pushed = []
    popped = []

    def push(t):
        def cb():
            if len(popped) < 400:
                push(t + rng.choice((0.0, 0.1, 0.9, 3.7, 40.0)))

        event = queue.push(t, cb)
        pushed.append((event.time, event.seq))

    for i in range(10):
        push(float(i % 4))
    for event in iter(queue.pop, None):
        popped.append((event.time, event.seq))
        event.callback()
    assert len(popped) > 400
    assert popped == sorted(pushed)


def test_far_future_events_cross_the_overflow_heap():
    queue = BucketedEventQueue()
    horizon_time = BucketedEventQueue.horizon * BucketedEventQueue.default_width
    times = [horizon_time * 5, 0.5, horizon_time * 3, horizon_time + 1.0, 2.0]
    for t in times:
        queue.push(t, lambda: None)
    assert len(queue._far) >= 2  # the far-future entries start in overflow
    assert [event.time for event in iter(queue.pop, None)] == sorted(times)


def test_cancel_semantics_match_eventqueue():
    queue = BucketedEventQueue()
    keep = queue.push(1.0, lambda: None)
    drop = queue.push(2.0, lambda: None)
    far = queue.push(10_000.0, lambda: None)
    queue.cancel(drop)
    queue.cancel(drop)  # double cancel: no len corruption
    assert len(queue) == 2
    popped = queue.pop()
    assert popped is keep
    popped.cancel()  # cancel after pop: no len corruption
    assert len(queue) == 1
    queue.cancel(far)
    assert len(queue) == 0
    assert queue.pop() is None


def test_peek_time_skips_cancelled_and_advances_tiers():
    queue = BucketedEventQueue()
    first = queue.push(3.0, lambda: None)
    queue.push(7_000.0, lambda: None)
    assert queue.peek_time() == 3.0
    queue.cancel(first)
    assert queue.peek_time() == 7_000.0
    assert queue.pop().time == 7_000.0
    assert queue.peek_time() is None


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        BucketedEventQueue().push(-1.0, lambda: None)


def test_invalid_width_rejected():
    with pytest.raises(ValueError):
        BucketedEventQueue(width=0.0)
