"""Per-disk queue disciplines.

The disk's server process pulls the next request through one of these
policies.  All of them serve *priority class 0 before class 1* (class 1
is RAID-x's background mirror traffic — the paper's "images updated at
the background"), applying their geometric policy within a class.

Complexity: SSTF and LOOK keep each priority class as a sorted list of
distinct offsets (bisect insert/remove) with a FIFO bucket of requests
per offset, so selecting the next request is O(log n) instead of the
O(n) scan of the straightforward implementation.  Arrival order is
tracked with a per-scheduler sequence number, which makes tie-breaking
(equidistant offsets under SSTF, equal offsets everywhere) *identical*
to the O(n) scans — pinned by the equivalence property tests in
``tests/hardware/test_scheduler_equivalence.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.hardware.disk import DiskRequest
from repro.obs import runtime as _obs


class _OffsetQueue:
    """Sorted distinct offsets + per-offset FIFO buckets for one class."""

    __slots__ = ("offsets", "buckets", "size")

    def __init__(self) -> None:
        self.offsets: List[int] = []
        self.buckets: Dict[int, Deque[Tuple[int, DiskRequest]]] = {}
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def push(self, seq: int, req: DiskRequest) -> None:
        off = req.offset
        bucket = self.buckets.get(off)
        if bucket is None:
            bucket = self.buckets[off] = deque()
            insort(self.offsets, off)
        bucket.append((seq, req))
        self.size += 1

    def take(self, idx: int) -> DiskRequest:
        """Pop the earliest-arrived request at ``offsets[idx]``."""
        off = self.offsets[idx]
        bucket = self.buckets[off]
        _seq, req = bucket.popleft()
        if not bucket:
            del self.buckets[off]
            self.offsets.pop(idx)
        self.size -= 1
        return req

    def head_seq(self, idx: int) -> int:
        """Arrival sequence of the earliest request at ``offsets[idx]``."""
        return self.buckets[self.offsets[idx]][0][0]


class DiskScheduler:
    """Interface: a mutable bag of pending requests with a pop policy.

    Requests live in per-priority-class queues; :meth:`pop` serves the
    lowest non-empty class.  Active class ids are kept in a small sorted
    list, so finding that class is a short scan (almost always length
    one or two) instead of a ``min()`` over a dict per pop.
    """

    def __init__(self) -> None:
        self._count = 0
        self._seq = 0
        self._classes: List[int] = []  # sorted active class ids
        self._by_class: Dict[int, object] = {}
        #: Deepest simultaneous backlog ever held (queueing pressure).
        self.max_depth_seen = 0

    # -- policy hooks ----------------------------------------------------
    def _new_queue(self):
        """Per-class queue structure (FIFO deque by default)."""
        return deque()

    def _push(self, queue, req: DiskRequest) -> None:
        queue.append(req)

    def _pop(self, queue, head: int) -> DiskRequest:
        return queue.popleft()

    # -- interface -------------------------------------------------------
    def push(self, req: DiskRequest) -> None:
        """Add a request to the pending set."""
        cls = req.priority
        queue = self._by_class.get(cls)
        if queue is None:
            queue = self._by_class[cls] = self._new_queue()
            insort(self._classes, cls)
        self._push(queue, req)
        self._seq += 1
        self._count += 1
        if self._count > self.max_depth_seen:
            self.max_depth_seen = self._count
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.count(
                "sched.enqueued.foreground"
                if cls == 0
                else "sched.enqueued.background"
            )

    def pass_through(self, req: DiskRequest, head: int) -> None:
        """Bookkeep a :meth:`push` of ``req`` into this empty scheduler
        and the :meth:`pop` that would return it at once, without either.

        The disk's fast-forward preload (``Disk.ff_preload``) serves a
        lone request on a parked server; the round trip would leave only
        this behind: the arrival sequence number, the depth high-water
        and the traced enqueue count.  Policies with pop state override
        it (LOOK's sweep direction).
        """
        self._seq += 1
        if not self.max_depth_seen:
            self.max_depth_seen = 1
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.count(
                "sched.enqueued.foreground"
                if req.priority == 0
                else "sched.enqueued.background"
            )

    def empty(self) -> bool:
        return self._count == 0

    def __len__(self) -> int:
        return self._count

    def pop(self, head: int) -> DiskRequest:
        """Remove and return the next request given the head position."""
        if self._count == 0:
            raise IndexError("pop from empty scheduler")
        for cls in self._classes:
            queue = self._by_class[cls]
            if len(queue):
                self._count -= 1
                return self._pop(queue, head)
        raise IndexError("pop from empty scheduler")  # pragma: no cover


class FifoScheduler(DiskScheduler):
    """First-come, first-served within a priority class."""


class SstfScheduler(DiskScheduler):
    """Shortest-seek-time-first: nearest offset to the head wins.

    O(log n) per pop: bisect the sorted offsets around the head and
    compare the two neighbours.  When both sides are equidistant the
    earlier-arrived request wins, exactly like the linear scan it
    replaces.
    """

    def _new_queue(self) -> _OffsetQueue:
        return _OffsetQueue()

    def _push(self, queue: _OffsetQueue, req: DiskRequest) -> None:
        queue.push(self._seq, req)

    def _pop(self, queue: _OffsetQueue, head: int) -> DiskRequest:
        offsets = queue.offsets
        i = bisect_left(offsets, head)
        if i == len(offsets):
            return queue.take(i - 1)
        if i == 0:
            return queue.take(0)
        d_hi = offsets[i] - head
        d_lo = head - offsets[i - 1]
        if d_hi < d_lo:
            return queue.take(i)
        if d_lo < d_hi:
            return queue.take(i - 1)
        # Equidistant: earliest arrival wins.
        if queue.head_seq(i - 1) < queue.head_seq(i):
            return queue.take(i - 1)
        return queue.take(i)


class LookScheduler(DiskScheduler):
    """Elevator (LOOK): sweep upward, reverse at the last request.

    O(log n) per pop: the next request in the sweep direction is the
    bisect neighbour of the head; the direction flips only when nothing
    lies at-or-beyond the head in the current direction.
    """

    def __init__(self) -> None:
        super().__init__()
        self._direction = 1

    def _new_queue(self) -> _OffsetQueue:
        return _OffsetQueue()

    def _push(self, queue: _OffsetQueue, req: DiskRequest) -> None:
        queue.push(self._seq, req)

    def pass_through(self, req: DiskRequest, head: int) -> None:
        super().pass_through(req, head)
        # The sweep turns as _pop would on a one-offset queue.
        if self._direction > 0:
            if req.offset < head:
                self._direction = -1
        elif req.offset > head:
            self._direction = 1

    def _pop(self, queue: _OffsetQueue, head: int) -> DiskRequest:
        offsets = queue.offsets
        if self._direction > 0:
            i = bisect_left(offsets, head)
            if i == len(offsets):  # nothing at or above: reverse
                self._direction = -1
                i -= 1
        else:
            i = bisect_right(offsets, head) - 1
            if i < 0:  # nothing at or below: reverse
                self._direction = 1
                i = 0
        return queue.take(i)


_POLICIES = {
    "fifo": FifoScheduler,
    "fcfs": FifoScheduler,
    "sstf": SstfScheduler,
    "look": LookScheduler,
    "elevator": LookScheduler,
}


def make_scheduler(policy: Optional[str]) -> DiskScheduler:
    """Instantiate a scheduler by name (default FIFO)."""
    if policy is None:
        return FifoScheduler()
    try:
        return _POLICIES[policy.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler policy {policy!r}; "
            f"choose from {sorted(set(_POLICIES))}"
        ) from None
