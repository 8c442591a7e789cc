"""Destage planning: when to write dirty blocks back, and in what runs.

A destage policy answers two pure questions — *should* this cache
destage now (:meth:`DestagePolicy.should_destage`) and *what* should
one sweep write (:meth:`DestagePolicy.select`).  Selection always
returns :class:`DestageRun` values: maximal contiguous logical-block
runs, so each run destages as one engine write (one plan), which is
what lets the RAID-5 planner batch parity work and the RAID-x planner
coalesce a whole mirror group's images into a single orthogonal
extent.

Three policies:

* **threshold** — destage when the dirty population crosses a fixed
  fraction of capacity; select the oldest runs up to the batch bound.
* **idle** — destage opportunistically whenever the foreground is
  idle, with the threshold as a capacity-pressure backstop.
* **mirror** — the RAID-x-aware policy: order dirty blocks by mirror
  group and cut runs on group boundaries, so every run's queued image
  writes fold into one orthogonal write before the engine sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.config import CacheConfig
from repro.cache.core import BlockCache


@dataclass(frozen=True)
class DestageRun:
    """One contiguous run of dirty blocks, destaged as a single write."""

    start_block: int
    blocks: Tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def coalesce_runs(
    blocks: Sequence[int],
    max_blocks: int,
    boundary: Optional[Callable[[int], int]] = None,
) -> List[DestageRun]:
    """Fold sorted blocks into contiguous runs of at most ``max_blocks``.

    ``boundary`` maps a block to a group id; runs never cross a group
    boundary (the mirror-coalescing cut).  Input order is preserved —
    callers sort by whatever key defines adjacency for them.
    """
    if max_blocks <= 0:
        raise ValueError("max_blocks must be positive")
    runs: List[List[int]] = []
    for b in blocks:
        if (
            runs
            and b == runs[-1][-1] + 1
            and len(runs[-1]) < max_blocks
            and (boundary is None or boundary(b) == boundary(runs[-1][-1]))
        ):
            runs[-1].append(b)
        else:
            runs.append([b])
    return [DestageRun(r[0], tuple(r)) for r in runs]


class DestagePolicy:
    """Base: threshold trigger + batch-bounded contiguous selection."""

    name = "abstract"

    def __init__(self, threshold_blocks: int, batch_blocks: int):
        if threshold_blocks <= 0 or batch_blocks <= 0:
            raise ValueError("destage thresholds must be positive")
        self.threshold_blocks = threshold_blocks
        self.batch_blocks = batch_blocks

    def should_destage(self, cache: BlockCache, idle: bool) -> bool:
        raise NotImplementedError

    def select(self, cache: BlockCache) -> List[DestageRun]:
        """Up to ``batch_blocks`` dirty blocks, folded into runs."""
        dirty = cache.dirty_blocks()[: self.batch_blocks]
        return coalesce_runs(dirty, self.batch_blocks)


class ThresholdDestage(DestagePolicy):
    """Destage only under dirty-population pressure."""

    name = "threshold"

    def should_destage(self, cache: BlockCache, idle: bool) -> bool:
        return cache.dirty_count >= self.threshold_blocks


class IdleDestage(ThresholdDestage):
    """Destage whenever the foreground is idle (threshold backstop)."""

    name = "idle"

    def should_destage(self, cache: BlockCache, idle: bool) -> bool:
        if idle and cache.dirty_count > 0:
            return True
        return super().should_destage(cache, idle)


class MirrorCoalescingDestage(ThresholdDestage):
    """Group dirty blocks by mirror group before cutting runs.

    ``group_of`` maps a logical block to its redundancy-group id (the
    RAID-x mirror group; other layouts fall back to the stripe).  One
    run never spans two groups, so the RAID-x planner turns each run's
    image fragments into exactly one clustered orthogonal write —
    folding every queued image write of that group into a single disk
    operation.
    """

    name = "mirror"

    def __init__(
        self,
        threshold_blocks: int,
        batch_blocks: int,
        group_of: Callable[[int], int],
    ):
        super().__init__(threshold_blocks, batch_blocks)
        self.group_of = group_of

    def select(self, cache: BlockCache) -> List[DestageRun]:
        group_of = self.group_of
        ordered = sorted(cache.dirty_blocks(), key=lambda b: (group_of(b), b))
        return coalesce_runs(
            ordered[: self.batch_blocks], self.batch_blocks,
            boundary=group_of,
        )


def make_destage_policy(
    config: CacheConfig, group_of: Optional[Callable[[int], int]] = None
) -> DestagePolicy:
    """Build the configured destage policy for one cache."""
    threshold = config.threshold_blocks
    batch = config.destage_batch
    if config.destage == "threshold":
        return ThresholdDestage(threshold, batch)
    if config.destage == "idle":
        return IdleDestage(threshold, batch)
    if group_of is None:
        raise ValueError(
            "mirror-coalescing destage needs a group_of(block) mapping"
        )
    return MirrorCoalescingDestage(threshold, batch, group_of)
