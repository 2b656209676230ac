"""Event primitives for the discrete-event simulator.

Events are ordered by (time, sequence number).  The sequence number
guarantees a deterministic total order even when two events are scheduled
for the same instant — they fire in the order they were scheduled — which
matters because the protocols under test are sensitive to message
interleavings and the experiments must be reproducible run-to-run.

Hot-path design: the heap holds plain ``(time, seq, event)`` tuples, so
every sift compares native tuples instead of invoking dataclass
rich-comparison methods, and :class:`Event` is a ``__slots__`` handle that
carries no per-instance ``__dict__``.

A pending handle's key may change: :meth:`BucketedEventQueue.move` re-keys
it to a later-or-equal time under a fresh ``seq`` and leaves its heap entry
where it is.  An entry whose ``seq`` no longer matches its event's is stale;
``pop`` / ``peek_time`` re-place it under the event's current key when they
reach it, which is never later than that key, so the pop order is the one
a cancel + push would have given.  A restarted timer therefore keeps one
queue entry instead of leaving one cancelled entry per restart.

The queue itself, :class:`BucketedEventQueue`, is a two-tier calendar
structure (near-future time buckets plus an overflow heap): pushes to
future buckets are O(1) list appends and pops are O(log b) in the *bucket*
population b, which at n≥100 event populations is far below the total
pending population m that a single binary heap would sift.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

#: Exclusive upper bound of a schedulable time: ``0.0 <= t < INF`` is one
#: chained test that also refuses NaN and both infinities.
INF = float("inf")


class Event:
    """A single scheduled callback.

    Attributes:
        time: Virtual time at which the event fires.  While the event is
            pending, :meth:`BucketedEventQueue.move` may set a later one.
        seq: Monotonically increasing tie-breaker assigned by the queue; a
            move draws a fresh one, exactly as the push it replaces would.
        callback: Callable invoked as ``callback(*args)`` when the event fires.
        label: The label a traced run records for the event.
        args: Positional arguments for ``callback``.  The event carries
            them so per-event callbacks can be plain bound methods instead
            of closures allocated per schedule.
        cancelled: Cancelled events stay in the heap but are skipped.
    """

    __slots__ = (
        "time", "seq", "callback", "label", "args", "cancelled", "_queue", "_in_heap"
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        label: str,
        args: tuple,
        queue: "BucketedEventQueue",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.args = args
        self.cancelled = False
        #: The queue holding this event; ``_in_heap`` is true from the push
        #: until the pop, across moves.
        self._queue = queue
        self._in_heap = True

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped.

        Cancelling is idempotent and safe after the event has fired: the
        queue's live count only drops while the event still sits in a heap,
        so double-cancels and cancel-after-pop cannot corrupt ``len(queue)``.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._in_heap:
                self._queue._live -= 1

    @property
    def active(self) -> bool:
        """Whether the event will still fire."""
        return not self.cancelled


#: Heap entry: comparison never reaches the Event because seq is unique.
HeapEntry = Tuple[float, int, Event]


class BucketedEventQueue:
    """A two-tier event queue: near-future time buckets + an overflow heap.

    Discrete-event workloads schedule almost everything a few hop delays
    ahead of ``now``, so a single binary heap pays O(log m) sifts against
    the *entire* pending population m even though the next event is always
    near the front.  This queue splits the timeline into fixed-width
    buckets:

    * the **near heap** holds the bucket currently being drained (plus any
      events pushed at or before it); pops sift a population of one bucket,
      not the whole queue;
    * **future buckets** are plain unsorted lists — a push is an O(1)
      append.  A bucket is heapified only when the near heap drains and the
      bucket becomes current;
    * events beyond ``horizon`` buckets ahead go to the **overflow heap**
      and migrate into buckets lazily when the dial advances.

    Ordering contract: pops come out in ``(time, seq)`` order.
    Buckets partition the timeline into disjoint half-open intervals,
    entries within a bucket are heap-ordered by those tuples, and the
    overflow heap is only ever drained bucket-aligned — so the pop sequence
    is the exact total order a single heap would give (the
    golden-fingerprint tests were captured on one).  A moved event's stale
    entry sorts no later than its current key and is re-placed when it
    surfaces, so moves keep the same order.
    """

    #: Bucket width in virtual-time units.  Hop delays and protocol Δs in
    #: the reproduction are O(1), so width 1.0 keeps bucket populations at
    #: "events per hop window" rather than "events per run".
    width = 1.0
    #: How many buckets ahead of the overflow bound are materialised per
    #: migration; beyond that, entries wait in the overflow heap.
    horizon = 512

    def __init__(self) -> None:
        # Bound per queue: an instance attribute is the cheaper load in _place.
        self._width = self.width
        self._near: List[HeapEntry] = []
        self._cur = 0
        #: bucket id -> unsorted entry list, for ids in (cur, far_bound).
        self._buckets: dict[int, List[HeapEntry]] = {}
        #: min-heap of bucket ids present in ``_buckets``.
        self._bucket_ids: List[int] = []
        #: entries with bucket id >= ``_far_bound``.
        self._far: List[HeapEntry] = []
        self._far_bound = self.horizon
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        label: str,
        args: tuple = (),
    ) -> Event:
        """Schedule ``callback(*args)`` at virtual ``time``; returns its handle."""
        if not 0.0 <= time < INF:
            raise ValueError(f"event time {time} is negative or not finite")
        seq = next(self._counter)
        event = Event(time, seq, callback, label, args, self)
        self._place((time, seq, event))
        self._live += 1
        return event

    def move(self, event: Event, time: float) -> bool:
        """Re-key pending ``event`` to fire at ``time``; ``False`` if it cannot.

        A pending event moved to a finite time no earlier than its own keeps
        its handle and its heap entry: it takes the next ``seq``, exactly as
        a push would, and the stale entry is re-placed when it surfaces.  An
        earlier or non-finite time, or a handle that is cancelled or no
        longer queued, changes nothing and returns ``False``: the caller
        cancels and pushes instead.
        """
        if event.time <= time < INF and event._in_heap and not event.cancelled:
            event.seq = next(self._counter)
            event.time = time
            return True
        return False

    def _place(self, entry: HeapEntry) -> None:
        """Put ``entry`` in the near heap, its future bucket or the overflow heap."""
        bucket_id = int(entry[0] / self._width)
        if bucket_id <= self._cur:
            heapq.heappush(self._near, entry)
        elif bucket_id < self._far_bound:
            bucket = self._buckets.get(bucket_id)
            if bucket is None:
                self._buckets[bucket_id] = [entry]
                heapq.heappush(self._bucket_ids, bucket_id)
            else:
                bucket.append(entry)
        else:
            heapq.heappush(self._far, entry)

    def _advance(self) -> bool:
        """Make the next non-empty bucket current; ``False`` when drained.

        Only called with an empty near heap.  The overflow heap is drained
        bucket-aligned: entries never enter ``_buckets`` below the current
        far bound, so a bucket taken from ``_bucket_ids`` always holds
        *every* pending entry of its time interval.
        """
        while True:
            if self._bucket_ids:
                bucket_id = heapq.heappop(self._bucket_ids)
                near = self._buckets.pop(bucket_id)
                heapq.heapify(near)
                self._near = near
                self._cur = bucket_id
                return True
            if not self._far:
                return False
            # Rebase the dial onto the overflow heap's earliest bucket and
            # migrate every overflow entry inside the new horizon.
            first_bucket = int(self._far[0][0] / self._width)
            self._far_bound = first_bucket + self.horizon
            far = self._far
            buckets = self._buckets
            while far and int(far[0][0] / self._width) < self._far_bound:
                entry = heapq.heappop(far)
                bucket_id = int(entry[0] / self._width)
                bucket = buckets.get(bucket_id)
                if bucket is None:
                    buckets[bucket_id] = [entry]
                    heapq.heappush(self._bucket_ids, bucket_id)
                else:
                    bucket.append(entry)

    def pop(self) -> Optional[Event]:
        """Remove and return the next active event, or ``None`` if empty."""
        near = self._near
        while True:
            while near:
                _, seq, event = heapq.heappop(near)
                if event.cancelled:
                    event._in_heap = False
                    continue
                if seq != event.seq:
                    self._place((event.time, event.seq, event))
                    continue
                event._in_heap = False
                self._live -= 1
                return event
            if not self._advance():
                return None
            near = self._near

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next active event without popping."""
        while True:
            near = self._near
            while near:
                time, seq, event = near[0]
                if event.cancelled:
                    heapq.heappop(near)
                    event._in_heap = False
                    continue
                if seq != event.seq:
                    heapq.heappop(near)
                    self._place((event.time, event.seq, event))
                    continue
                return time
            if not self._advance():
                return None

    def cancel(self, event: Event) -> None:
        """Cancel an event previously returned by :meth:`push`."""
        event.cancel()
