"""Pluggable eviction policies: recency (LRU) and adaptive (ARC).

A policy tracks only *residency order* — which resident block to evict
next.  The cache core (:mod:`repro.cache.core`) owns block state and
never evicts a dirty or destaging block: it walks :meth:`victims` in
policy order and takes the first clean candidate, so a policy's
ordering is advisory over the clean population.

Determinism: both policies are plain ordered dicts driven only by the
access sequence — no randomness, no clocks — so a cache-on run is as
replayable as the simulator underneath it.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Iterator


class EvictionPolicy:
    """Interface: residency bookkeeping + victim ordering."""

    name = "abstract"

    def __init__(self, capacity_blocks: int):
        if capacity_blocks <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity_blocks = capacity_blocks

    def on_hit(self, block: int) -> None:
        """A resident block was referenced."""
        raise NotImplementedError

    def on_insert(self, block: int) -> None:
        """A block became resident (fill or first write)."""
        raise NotImplementedError

    def on_evict(self, block: int) -> None:
        """The cache chose this block as the eviction victim."""
        raise NotImplementedError

    def on_remove(self, block: int) -> None:
        """A block left the cache for a non-eviction reason
        (invalidation, destage loss) — no ghost history is kept."""
        raise NotImplementedError

    def victims(self) -> Iterator[int]:
        """Resident blocks in preferred-eviction order.

        A live view, not a copy: the caller stops iterating before it
        changes residency (the cache core takes the first clean block,
        then evicts it)."""
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Classic least-recently-used ordering."""

    name = "lru"

    def __init__(self, capacity_blocks: int):
        super().__init__(capacity_blocks)
        self._lru: "OrderedDict[int, bool]" = OrderedDict()

    def on_hit(self, block: int) -> None:
        self._lru.move_to_end(block)

    def on_insert(self, block: int) -> None:
        self._lru[block] = True

    def on_evict(self, block: int) -> None:
        self._lru.pop(block, None)

    on_remove = on_evict

    def victims(self) -> Iterator[int]:
        return iter(self._lru)


class ARCPolicy(EvictionPolicy):
    """Adaptive Replacement Cache (Megiddo & Modha, FAST '03).

    Two resident lists — ``t1`` (seen once) and ``t2`` (seen twice or
    more) — plus ghost histories ``b1``/``b2`` of recently evicted
    blocks.  A ghost hit adapts the target size ``p`` of ``t1``: hits
    in ``b1`` grow it (recency is winning), hits in ``b2`` shrink it
    (frequency is winning).  One-shot scans flow through ``t1`` without
    displacing the ``t2`` working set — the scan resistance LRU lacks.
    """

    name = "arc"

    def __init__(self, capacity_blocks: int):
        super().__init__(capacity_blocks)
        self.p = 0  # target size of t1, adapted on ghost hits
        self._t1: "OrderedDict[int, bool]" = OrderedDict()
        self._t2: "OrderedDict[int, bool]" = OrderedDict()
        self._b1: "OrderedDict[int, bool]" = OrderedDict()
        self._b2: "OrderedDict[int, bool]" = OrderedDict()

    def on_hit(self, block: int) -> None:
        if block in self._t1:
            del self._t1[block]
            self._t2[block] = True
        elif block in self._t2:
            self._t2.move_to_end(block)

    def on_insert(self, block: int) -> None:
        c = self.capacity_blocks
        if block in self._b1:
            delta = max(1, len(self._b2) // max(1, len(self._b1)))
            self.p = min(c, self.p + delta)
            del self._b1[block]
            self._t2[block] = True
        elif block in self._b2:
            delta = max(1, len(self._b1) // max(1, len(self._b2)))
            self.p = max(0, self.p - delta)
            del self._b2[block]
            self._t2[block] = True
        else:
            self._t1[block] = True
        self._trim_ghosts()

    def on_evict(self, block: int) -> None:
        if self._t1.pop(block, None) is not None:
            self._b1[block] = True
        elif self._t2.pop(block, None) is not None:
            self._b2[block] = True
        self._trim_ghosts()

    def on_remove(self, block: int) -> None:
        self._t1.pop(block, None)
        self._t2.pop(block, None)

    def victims(self) -> Iterator[int]:
        # Prefer t1 while it exceeds its adaptive target (or t2 is
        # empty); fall through to the other list so the cache core can
        # always find a clean candidate if one exists.
        prefer_t1 = bool(self._t1) and (
            len(self._t1) > self.p or not self._t2
        )
        first, second = (
            (self._t1, self._t2) if prefer_t1 else (self._t2, self._t1)
        )
        return chain(first, second)

    def _trim_ghosts(self) -> None:
        c = self.capacity_blocks
        while len(self._t1) + len(self._b1) > c and self._b1:
            self._b1.popitem(last=False)
        while (
            len(self._t1) + len(self._t2) + len(self._b1) + len(self._b2)
            > 2 * c
            and self._b2
        ):
            self._b2.popitem(last=False)


_POLICY_CLASSES = {"lru": LRUPolicy, "arc": ARCPolicy}


def make_policy(name: str, capacity_blocks: int) -> EvictionPolicy:
    """Instantiate an eviction policy by name."""
    try:
        cls = _POLICY_CLASSES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; "
            f"choose from {sorted(_POLICY_CLASSES)}"
        ) from None
    return cls(capacity_blocks)
