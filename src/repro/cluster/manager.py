"""Explicit storage-manager servers (the CDD's manager module as a
first-class process).

By default the simulation executes a remote request's manager work
inline in the requesting process against the owner node's shared
resources — timing-equivalent to a fully concurrent server and cheap to
simulate.  This module provides the *explicit* alternative: each node
serves requests with a bounded number of service slots (kernel worker
threads); a request that finds every slot busy waits in the slots' FIFO
queue.  With ``service_slots`` small, server-side queueing becomes
visible — the knob the inline model cannot express.

Enable via ``build_cluster(..., cdd_mode="server")`` (optionally
``cdd_service_slots=N``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.core import Environment
from repro.sim.events import Event
from repro.sim.resources import Resource


@dataclass
class ManagerRequest:
    """One queued block operation at a storage manager."""

    op: str
    disk: int
    offset: int
    nbytes: int
    priority: int
    client: int
    done: Event = field(repr=False, default=None)  # type: ignore[assignment]
    enqueued_at: float = 0.0
    trace: Optional[int] = None


class StorageManagerServer:
    """A node's storage-manager: a bounded worker pool with a FIFO queue."""

    def __init__(self, node, service_slots: int = 8):
        if service_slots < 1:
            raise ValueError("need at least one service slot")
        self.node = node
        self.env: Environment = node.env
        self.service_slots = service_slots
        self._slots = Resource(self.env, capacity=service_slots)
        self.served = 0
        self.max_queue_seen = 0
        self.total_wait = 0.0

    # -- client-facing ---------------------------------------------------
    def submit(
        self, op: str, disk: int, offset: int, nbytes: int,
        priority: int = 0, client: int = -1, trace: Optional[int] = None,
    ) -> Event:
        """Queue a request; the returned event triggers when served."""
        req = ManagerRequest(
            op=op,
            disk=disk,
            offset=offset,
            nbytes=nbytes,
            priority=priority,
            client=client,
            done=self.env.event(),
            enqueued_at=self.env.now,
            trace=trace,
        )
        self.env.process(self._serve(req))
        return req.done

    @property
    def queue_length(self) -> int:
        """Requests waiting for a service slot."""
        return len(self._slots.queue)

    def mean_wait(self) -> float:
        return self.total_wait / self.served if self.served else 0.0

    # -- server side -----------------------------------------------------
    def _serve(self, req: ManagerRequest):
        slot = self._slots.request()
        # High-water mark of the requests waiting for a slot, this one
        # included when it found every slot busy.
        if self.queue_length > self.max_queue_seen:
            self.max_queue_seen = self.queue_length
        yield slot
        try:
            self.total_wait += self.env.now - req.enqueued_at
            yield self.node.cpu.driver_entry(kernel_level=True)
            yield from self.node.disk_io(
                req.disk, req.op, req.offset, req.nbytes, req.priority,
                trace=req.trace,
            )
            self.served += 1
            req.done.succeed()
        except Exception as exc:  # disk failures propagate to the client
            req.done.fail(exc)
        finally:
            self._slots.release(slot)
