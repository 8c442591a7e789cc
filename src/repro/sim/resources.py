"""Queued resources: a counting resource with a FIFO wait queue.

Requests are events; a process acquires with ``yield resource.request()``
and must release with ``resource.release(req)`` (or use the request as a
context manager inside the process generator).
"""

from __future__ import annotations

from typing import List

from repro.sim.core import Environment
from repro.sim.events import Event


class Request(Event):
    """A pending acquisition of one slot of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource.queue.append(self)
        resource._trigger_pending()

    def cancel(self) -> None:
        """Withdraw an un-granted request from the wait queue."""
        if not self.triggered:
            try:
                self.resource.queue.remove(self)
            except ValueError:
                pass

    # Context-manager sugar: ``with res.request() as req: yield req``.
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Release(Event):
    """Immediate event confirming a release (for symmetry with SimPy)."""

    __slots__ = ()


class Resource:
    """A counting resource with a FIFO wait queue.

    ``capacity`` slots may be held concurrently; further requests queue.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []

    # -- public API ------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Queue for one slot; the returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a previously granted slot.

        Releasing a request that was never granted *cancels* it instead
        (so ``with resource.request() as req`` stays correct when the
        waiting process fails or is closed mid-queue); releasing a
        request that was already released is an error.
        """
        try:
            self.users.remove(request)
        except ValueError:
            if not request.triggered:
                request.cancel()
            else:
                raise RuntimeError(
                    "release() of a request that does not hold the "
                    "resource"
                ) from None
        ev = Release(self.env)
        self._trigger_pending()
        ev.succeed()
        return ev

    def _trigger_pending(self) -> None:
        queue = self.queue
        while queue and len(self.users) < self.capacity:
            nxt = queue.pop(0)
            self.users.append(nxt)
            nxt.succeed()
