"""BucketedEventQueue: total order, cancellation, tier migration.

The bucketed queue is the simulator's only queue; its contract is "pops
come out in ``(time, seq)`` order, seq being push order".  The
oracle here is that contract itself — ``sorted()`` over the pushed keys —
and, byte-for-byte at the trace level, the golden fingerprints in
``tests/testkit/test_golden_fingerprints.py``, which were captured on a
single binary heap.
"""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import BucketedEventQueue
from tests.conftest import entry_count


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
        event = queue.push(time, lambda: None, "")
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

        event = queue.push(t, cb, "")
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
    horizon_time = BucketedEventQueue.horizon * BucketedEventQueue.width
    times = [horizon_time * 5, 0.5, horizon_time * 3, horizon_time + 1.0, 2.0]
    for t in times:
        queue.push(t, lambda: None, "")
    assert len(queue._far) >= 2  # the far-future entries start in overflow
    assert [event.time for event in iter(queue.pop, None)] == sorted(times)


def test_cancel_semantics_match_eventqueue():
    queue = BucketedEventQueue()
    keep = queue.push(1.0, lambda: None, "")
    drop = queue.push(2.0, lambda: None, "")
    far = queue.push(10_000.0, lambda: None, "")
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
    first = queue.push(3.0, lambda: None, "")
    queue.push(7_000.0, lambda: None, "")
    assert queue.peek_time() == 3.0
    queue.cancel(first)
    assert queue.peek_time() == 7_000.0
    assert queue.pop().time == 7_000.0
    assert queue.peek_time() is None


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        BucketedEventQueue().push(-1.0, lambda: None, "")


# ------------------------------------------------ move == cancel + push
class CancelAndPushQueue:
    """The behaviour ``BucketedEventQueue.move`` replaces, on one binary heap.

    A handle is ``[time, seq, callback, live]``; a move cancels it and
    pushes a new one under the next seq, whatever the new time.
    """

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()

    def __len__(self):
        return sum(1 for _, _, handle in self._heap if handle[3])

    def push(self, time, callback):
        handle = [time, next(self._counter), callback, True]
        heapq.heappush(self._heap, (time, handle[1], handle))
        return handle

    def move(self, handle, time):
        handle[3] = False
        return self.push(time, handle[2])

    def cancel(self, handle):
        handle[3] = False

    def _skip_cancelled(self):
        while self._heap and not self._heap[0][2][3]:
            heapq.heappop(self._heap)

    def pop(self):
        self._skip_cancelled()
        if not self._heap:
            return None
        handle = heapq.heappop(self._heap)[2]
        handle[3] = False
        return handle

    def peek_time(self):
        self._skip_cancelled()
        return self._heap[0][0] if self._heap else None


HORIZON_TIME = BucketedEventQueue.horizon * BucketedEventQueue.width
#: Zero (same-time ties), bucket edges, and jumps past the 512-bucket horizon.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, HORIZON_TIME - 1.0, HORIZON_TIME, 3.5 * HORIZON_TIME]),
    st.floats(min_value=0.0, max_value=4 * HORIZON_TIME),
)
HANDLE = st.integers(min_value=0, max_value=63)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), DELAYS),
        st.tuples(st.just("move"), HANDLE, st.sampled_from(["later", "equal", "earlier"]), DELAYS),
        st.tuples(st.just("cancel"), HANDLE),
        st.just(("pop",)),
        st.just(("peek",)),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(OPERATIONS)
def test_move_pops_exactly_as_cancel_and_push(operations):
    """Any interleaving of push / move / cancel / pop / peek: same pops, same length.

    Times are scheduled as the simulator does, never before the last pop.
    Moves go later, to the same time, and earlier, on pending, cancelled
    and already-popped handles alike; where ``move`` refuses, the test
    cancels and pushes, as ``Timer.start`` does.
    """
    queue, reference = BucketedEventQueue(), CancelAndPushQueue()
    handles = []  # (queue event, reference handle) per push, updated by moves
    popped, reference_popped = [], []
    now = 0.0
    for operation in operations:
        kind = operation[0]
        if kind == "push":
            time, callback = now + operation[1], (lambda: None)
            handles.append((queue.push(time, callback, ""), reference.push(time, callback)))
        elif kind in ("move", "cancel") and handles:
            index = operation[1] % len(handles)
            event, handle = handles[index]
            if kind == "cancel":
                queue.cancel(event)
                reference.cancel(handle)
            else:
                direction, delay = operation[2], operation[3]
                time = {
                    "later": event.time + delay,
                    "equal": event.time,
                    "earlier": max(now, event.time - delay),
                }[direction]
                if not queue.move(event, time):
                    queue.cancel(event)
                    event = queue.push(time, event.callback, "")
                handles[index] = (event, reference.move(handle, time))
        elif kind == "pop":
            event, handle = queue.pop(), reference.pop()
            popped.append(None if event is None else (event.time, event.seq, event.callback))
            reference_popped.append(None if handle is None else tuple(handle[:3]))
            if event is not None:
                now = event.time
        elif kind == "peek":
            assert queue.peek_time() == reference.peek_time()
        assert popped == reference_popped
        assert len(queue) == len(reference)
    while True:
        event, handle = queue.pop(), reference.pop()
        assert (event is None) == (handle is None)
        if event is None:
            break
        assert (event.time, event.seq, event.callback) == tuple(handle[:3])
    assert len(queue) == len(reference) == 0


def test_a_move_keeps_one_entry_and_draws_the_next_seq():
    queue = BucketedEventQueue()
    event = queue.push(2.0, lambda: None, "")
    other = queue.push(2.0, lambda: None, "")
    assert queue.move(event, 2.0)
    assert (event.time, event.seq) == (2.0, 2)
    assert queue.move(event, HORIZON_TIME * 2)
    assert (event.time, event.seq, len(queue), entry_count(queue)) == (HORIZON_TIME * 2, 3, 2, 2)
    assert queue.peek_time() == 2.0
    assert queue.pop() is other
    # The stale entry at (2.0, 0) surfaced and was re-placed, not returned.
    assert queue.peek_time() == HORIZON_TIME * 2
    assert (len(queue), entry_count(queue)) == (1, 1)
    assert queue.pop() is event
    assert queue.pop() is None


def test_a_refused_move_changes_nothing():
    queue = BucketedEventQueue()
    event = queue.push(5.0, lambda: None, "")
    cancelled = queue.push(6.0, lambda: None, "")
    cancelled.cancel()
    assert not queue.move(event, 1.0)  # earlier
    assert not queue.move(cancelled, 7.0)
    assert (event.time, event.seq, event.active, len(queue)) == (5.0, 0, True, 1)
    assert queue.pop() is event
    assert not queue.move(event, 8.0)  # no longer queued
    assert queue.push(9.0, lambda: None, "").seq == 2


def test_cancel_after_moves_retires_the_event_once():
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None, "")
    for time in (3.0, 3.0, 700.0):
        queue.move(event, time)
    event.cancel()
    event.cancel()
    assert len(queue) == 0
    assert queue.pop() is None
    assert entry_count(queue) == 0


@pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_times_are_refused_before_a_seq_is_drawn(time):
    queue = BucketedEventQueue()
    event = queue.push(1.0, lambda: None, "")
    with pytest.raises(ValueError):
        queue.push(time, lambda: None, "")
    assert not queue.move(event, time)
    assert (event.time, event.active, len(queue)) == (1.0, True, 1)
    assert queue.push(2.0, lambda: None, "").seq == 1
