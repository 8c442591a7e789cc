"""Queued resources: counting resources and stores.

Requests are events; a process acquires with ``yield resource.request()``
and must release with ``resource.release(req)`` (or use the request as a
context manager inside the process generator).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

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


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(
        self,
        store: "Store",
        filter: Optional[Callable[[Any], bool]] = None,
    ):
        super().__init__(store.env)
        self.filter = filter
        store._getters.append(self)
        store._dispatch()


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._putters.append(self)
        store._dispatch()


class Store:
    """A FIFO store of discrete items with optional filtered gets.

    The workhorse for message queues between simulated cluster nodes.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._getters: List[StoreGet] = []
        self._putters: List[StorePut] = []

    def put(self, item: Any) -> StorePut:
        """Deposit ``item``; blocks while the store is full."""
        return StorePut(self, item)

    def get(
        self, filter: Optional[Callable[[Any], bool]] = None
    ) -> StoreGet:
        """Withdraw the oldest item (optionally the oldest matching one)."""
        return StoreGet(self, filter)

    def __len__(self) -> int:
        return len(self.items)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            for get in list(self._getters):
                idx = None
                if get.filter is None:
                    if self.items:
                        idx = 0
                else:
                    for i, item in enumerate(self.items):
                        if get.filter(item):
                            idx = i
                            break
                if idx is not None:
                    self._getters.remove(get)
                    get.succeed(self.items.pop(idx))
                    progressed = True
