"""Mechanical disk model.

Service time for a request at byte offset ``o`` of size ``s``::

    controller + seek(|o - head|) + rotation + s / media_rate

where seek and rotation are skipped when the request continues a
sequential run (within ``sequential_window_bytes`` ahead of the head).
Seek time interpolates between track-to-track and full-stroke with the
usual square-root profile.

Requests are served one at a time; the queue discipline is pluggable
(see :mod:`repro.io.scheduler`).

The server is callback-driven, built on :class:`repro.sim.core.Recurring`:
the whole service interval is computed in closed form at dispatch and a
single marker firing per completion performs the span/stats/completion
bookkeeping.  Submissions land in a plain list, and a parked server is
woken by arming the marker directly.  The goldens in
``tests/hardware/golden_disk.json`` pin event order, spans and float
timestamps; they were recorded on the generator serve loop this server
replaced, and DESIGN §6.13 argues why the two are order-isomorphic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from math import sqrt as _sqrt
from typing import TYPE_CHECKING, List, Optional

from repro.config import DiskParams
from repro.errors import AddressError, DiskFailedError
from repro.obs import runtime as _obs
from repro.obs.trace import DISK_QUEUE_WAIT, DISK_SERVICE
from repro.sim.core import Environment, Recurring
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.io.scheduler import DiskScheduler


@dataclass
class DiskStats:
    """Cumulative per-disk accounting."""

    reads: int = 0
    writes: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    busy_time: float = 0.0
    #: Busy time split by priority class: foreground (class 0) vs
    #: background (e.g. RAID-x image flushes) — background work has
    #: slack, so only the foreground share sits on the critical path.
    busy_time_foreground: float = 0.0
    busy_time_background: float = 0.0
    seek_time: float = 0.0
    rotation_time: float = 0.0
    transfer_time: float = 0.0
    sequential_hits: int = 0
    #: High-water mark of the submitted-but-not-completed count — the
    #: always-on queue-depth signal (one compare per submit, cheap
    #: enough to stay within the perf-smoke floors).
    queue_depth_hw: int = 0

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass(slots=True)
class DiskRequest:
    """One disk operation; ``done`` triggers with the service time."""

    op: str  # "read" | "write"
    offset: int  # byte offset on this disk
    nbytes: int
    done: Event = field(repr=False, default=None)  # type: ignore[assignment]
    submitted_at: float = 0.0
    #: Scheduling priority: lower values served first when the queue
    #: discipline honours priorities (background mirror flushes use >0).
    priority: int = 0
    #: Trace id of the logical request this op belongs to (see repro.obs).
    trace: Optional[int] = None

    def validate(self, capacity: int) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"bad disk op {self.op!r}")
        # ``not x >= 0`` rather than ``x < 0``: NaN must fail too.
        if not self.nbytes >= 0:
            raise ValueError(f"bad request size {self.nbytes!r}")
        if not self.offset >= 0 or self.offset + self.nbytes > capacity:
            raise AddressError(
                f"request [{self.offset}, {self.offset + self.nbytes}) "
                f"outside disk of {capacity} bytes"
            )


class Disk:
    """A single simulated disk with its own callback-driven server."""

    def __init__(
        self,
        env: Environment,
        params: Optional[DiskParams] = None,
        disk_id: int = 0,
        scheduler: Optional["DiskScheduler"] = None,
        name: str = "",
    ):
        from repro.io.scheduler import FifoScheduler

        self.env = env
        self.params = params or DiskParams()
        self.disk_id = disk_id
        self.name = name or f"disk{disk_id}"
        # NB: "scheduler or ..." would discard a custom scheduler — an
        # empty DiskScheduler is falsy because it defines __len__.
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        self.stats = DiskStats()
        self.failed = False
        #: Current head position (byte offset).
        self._head = 0
        #: End of the last completed request, for sequential detection.
        self._last_end = 0
        self._pending = 0
        # Callback-driven server: one Recurring firing per request
        # completion.  The marker's fn dispatches on _ff_req: None
        # means "wake from park" (grant _ff_wake_req), anything else
        # is the in-flight request completing now.
        self._ff_marker = Recurring(env, self._ff_step)
        self._ff_items: List[DiskRequest] = []
        self._ff_parked = True
        self._ff_wake_req: Optional[DiskRequest] = None
        self._ff_req: Optional[DiskRequest] = None
        self._ff_info: Optional[tuple] = None
        # DiskParams is frozen: bind the closed-form constants once
        # (avg_rotation_s is a computed property — one call, not one
        # per dispatch).
        p = self.params
        self._ff_ctrl = p.controller_overhead_s
        self._ff_window = p.sequential_window_bytes
        self._ff_rate = p.media_rate
        self._ff_rot = p.avg_rotation_s
        self._ff_t2t = p.track_to_track_seek_s
        self._ff_stroke = p.full_stroke_seek_s - p.track_to_track_seek_s
        self._ff_cap = p.capacity_bytes

    # -- public API ------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.params.capacity_bytes

    @property
    def queue_depth(self) -> int:
        """Requests submitted but not yet completed."""
        return self._pending

    def submit(
        self, op: str, offset: int, nbytes: int, priority: int = 0,
        trace: Optional[int] = None,
    ) -> Event:
        """Queue a request; returns the completion event.

        The event fails with :class:`DiskFailedError` if the disk is (or
        becomes) failed before the request is served.  ``trace`` tags the
        op's queue-wait/service spans with a logical request's trace id.
        """
        env = self.env
        req = DiskRequest(
            op, offset, nbytes, Event(env), env._now, priority, trace
        )
        req.validate(self._ff_cap)
        if self.failed:
            req.done.fail(DiskFailedError(self.disk_id))
            return req.done
        self._pending += 1
        if self._pending > self.stats.queue_depth_hw:
            self.stats.queue_depth_hw = self._pending
        if self._ff_parked:
            # Wake the parked server: arm the marker at now.
            self._ff_parked = False
            self._ff_wake_req = req
            env.schedule(self._ff_marker)
        else:
            self._ff_items.append(req)
        return req.done

    def read(self, offset: int, nbytes: int, priority: int = 0,
             trace: Optional[int] = None) -> Event:
        """Shorthand for a read request."""
        return self.submit("read", offset, nbytes, priority, trace)

    def write(self, offset: int, nbytes: int, priority: int = 0,
              trace: Optional[int] = None) -> Event:
        """Shorthand for a write request."""
        return self.submit("write", offset, nbytes, priority, trace)

    def fail(self) -> None:
        """Mark the disk failed; subsequent and queued requests error."""
        self.failed = True

    def repair(self) -> None:
        """Bring a failed disk back (contents considered rebuilt)."""
        self.failed = False

    # -- node fast-forward hooks (see repro.hardware.node) ----------------

    def ff_ready(self, op: str, offset: int, nbytes: int) -> bool:
        """True when a node fast-forward may preload this request.

        Requires the server parked (so the marker is free to arm) with
        no backlog and nothing in flight, a healthy disk, and a request
        that would pass :meth:`DiskRequest.validate` — folded in here so
        the claim/preload sequence that follows can never raise after
        upstream resources have been charged.
        """
        return (
            self._ff_parked
            and not self.failed
            and self._pending == 0
            and (op == "read" or op == "write")
            and offset >= 0
            and nbytes >= 0
            and offset + nbytes <= self.params.capacity_bytes
        )

    def ff_preload(
        self,
        op: str,
        offset: int,
        nbytes: int,
        dispatch_at: float,
        priority: int = 0,
        trace: Optional[int] = None,
    ) -> Event:
        """Price a request *now* that will reach the disk at ``dispatch_at``.

        The node fast-forward has established (conflict predicate, see
        DESIGN §6.14) that this parked disk stays untouched until the
        request's bus transfer completes at ``dispatch_at``, so the
        wake-at-dispatch marker firing can run early, with the completion
        marker armed directly at ``dispatch_at + service`` — skipping the
        wake event.  The caller must have checked :meth:`ff_ready`: the
        server is parked with nothing pending, so the wake would push
        this lone request into the empty scheduler and pop it straight
        back.  That round trip is only bookkept
        (:meth:`DiskScheduler.pass_through`), and :meth:`_ff_next` prices
        the request with the same closed form against the same head.
        """
        req = DiskRequest(
            op, offset, nbytes, Event(self.env), dispatch_at, priority, trace
        )
        self._pending += 1
        if self._pending > self.stats.queue_depth_hw:
            self.stats.queue_depth_hw = self._pending
        self._ff_parked = False
        # Head state read at submit time is the head state at dispatch
        # time — the predicate guarantees no intervening service.
        self.scheduler.pass_through(req, self._head)
        service = self._ff_next(dispatch_at, req)
        # Phase path: the wake marker pops at dispatch_at and the run
        # loop re-arms it at ``now + service`` with now == dispatch_at.
        # Same float expression here, armed early.
        env = self.env
        heappush(
            env._queue, (dispatch_at + service, next(env._seq), self._ff_marker)
        )
        return req.done

    # -- the server --------------------------------------------------------

    def _ff_step(self, now: float) -> Optional[float]:
        """Marker firing: wake from park, or complete the request at ``now``.

        Returns the absolute time of the next completion (the run loop
        re-arms the marker) or None when the disk parks or the marker
        was re-armed inline for an immediate grant.
        """
        req = self._ff_req
        if req is None:
            # Wake from park: the request that woke the server.
            self.scheduler.push(self._ff_wake_req)
            self._ff_wake_req = None
            service = self._ff_next(now)
            return None if service is None else now + service

        service, seek, rot, xfer, tracer = self._ff_info  # type: ignore[misc]
        if tracer.enabled:
            tracer.record(
                DISK_SERVICE,
                self.name,
                now - service,
                now,
                trace=req.trace,
                op=req.op,
                nbytes=req.nbytes,
                seek=seek,
                rotation=rot,
                transfer=xfer,
                priority=req.priority,
            )
        st = self.stats
        nbytes = req.nbytes
        st.busy_time += service
        if req.priority == 0:
            st.busy_time_foreground += service
        else:
            st.busy_time_background += service
        st.seek_time += seek
        st.rotation_time += rot
        st.transfer_time += xfer
        if seek == 0.0 and rot == 0.0:
            st.sequential_hits += 1
        if req.op == "read":
            st.reads += 1
            st.bytes_read += nbytes
        else:
            st.writes += 1
            st.bytes_written += nbytes

        self._head = self._last_end = req.offset + nbytes
        self._pending -= 1
        done = req.done
        if self.failed:
            done.fail(DiskFailedError(self.disk_id))
        else:
            # Inlined done.succeed(service): a request reaching its
            # completion firing can never be pre-triggered (a fail-fast
            # submit never queues; a mid-queue failure fails in
            # _ff_next), so the already-triggered guard is dead here.
            done._value = service
            env = self.env
            heappush(env._queue, (now, next(env._seq), done))

        nxt = self._ff_next(now)
        return None if nxt is None else now + nxt

    def _ff_next(
        self, now: float, req: Optional[DiskRequest] = None
    ) -> Optional[float]:
        """Dispatch the next request; its service time, or None.

        Drains arrivals into the scheduler, pops by policy, then fails
        or prices the request and records its queue-wait span.  The
        completion bookkeeping runs in :meth:`_ff_step` when the marker
        pops.  On empty backlog the server parks (a submit re-arms the
        marker); if arrivals raced in, the marker is re-armed at
        ``now`` instead, as a wake grant.  A preloaded lone ``req``
        (:meth:`ff_preload`) skips the drain and the pop: there is
        nothing to drain, and the pop would return it.
        """
        sched = self.scheduler
        items = self._ff_items
        while req is None:
            if sched.empty():
                self._ff_req = None
                if items:
                    self._ff_wake_req = items.pop(0)
                    self.env.schedule(self._ff_marker)
                else:
                    self._ff_parked = True
                return None
            if items:
                for r in items:
                    sched.push(r)
                del items[:]
            req = sched.pop(head=self._head)
            if self.failed:
                self._pending -= 1
                req.done.fail(DiskFailedError(self.disk_id))
                req = None
        # The service closed form (module docstring) with the frozen
        # params bound at construction: seek and rotation skipped inside
        # the sequential window, square-root seek between track-to-track
        # and full-stroke otherwise.
        off = req.offset
        last_end = self._last_end
        if off >= last_end and off - last_end < self._ff_window:
            seek = 0.0
            rot = 0.0
        else:
            dist = off - self._head
            if dist < 0:
                dist = -dist
            if dist <= 0:
                seek = 0.0
            else:
                frac = dist / self._ff_cap
                if frac > 1.0:
                    frac = 1.0
                seek = self._ff_t2t + self._ff_stroke * _sqrt(frac)
            rot = self._ff_rot
        xfer = req.nbytes / self._ff_rate
        service = self._ff_ctrl + seek + rot + xfer
        tracer = _obs.TRACER
        if tracer.enabled and now > req.submitted_at:
            tracer.record(
                DISK_QUEUE_WAIT,
                self.name,
                req.submitted_at,
                now,
                trace=req.trace,
                op=req.op,
                priority=req.priority,
            )
        self._ff_req = req
        # The tracer rides along: the service span is gated on the
        # tracer read at dispatch, not at completion.
        self._ff_info = (service, seek, rot, xfer, tracer)
        return service
