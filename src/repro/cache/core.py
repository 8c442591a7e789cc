"""The per-node block cache: residency, dirty state, RMW absorption.

:class:`BlockCache` unifies the old read-only LRU cache (whose
``lookup``/``insert``/``invalidate``/``hit_rate`` API the fs layer and
the NFS server cache still use, unchanged) with the write-back
machinery the engine's cache stage needs: a clean/dirty/destaging
state machine, write absorption, destage bookkeeping, and the
``old_known`` set that powers read-modify-write absorption — the cache
can supply a block's *pre-write* content whenever the block was
resident (clean or freshly filled) at the moment it was dirtied, so
the RAID-5 destage planner may drop that block's old-data pre-read.

Eviction never touches a dirty or destaging block.  When every
resident block is pinned dirty the cache overcommits rather than
deadlock — the destage threshold (a fraction of capacity) keeps that
excursion short-lived and the ``dirty_hw`` high-water mark records it.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set, Union

from repro.cache.block import BlockState, CacheStateError, CacheStats
from repro.cache.policy import EvictionPolicy, make_policy


class WriteAdmission(enum.Enum):
    """Outcome of admitting one write to the cache (write-back mode)."""

    #: Block was already dirty or destaging: rewrite absorbed in place.
    ABSORBED = "absorbed"
    #: Block is now dirty (was clean-resident, or a full overwrite).
    DIRTIED = "dirtied"
    #: Partial write of a non-resident block: the caller must fill the
    #: block from storage first (read-modify-write at the cache level).
    NEEDS_FILL = "needs_fill"


class BlockCache:
    """One node's fixed-capacity block cache."""

    def __init__(
        self,
        node_id: int,
        capacity_blocks: int = 2048,
        policy: Union[str, EvictionPolicy] = "lru",
        track_blocks: bool = False,
    ):
        if capacity_blocks <= 0:
            raise ValueError("cache capacity must be positive")
        self.node_id = node_id
        self.capacity_blocks = capacity_blocks
        self.policy: EvictionPolicy = (
            make_policy(policy, capacity_blocks)
            if isinstance(policy, str)
            else policy
        )
        self.track_blocks = track_blocks
        self.stats = CacheStats()
        self._state: Dict[int, BlockState] = {}
        #: Blocks whose pre-write (on-disk) content the cache can still
        #: supply — the RMW-absorption set.
        self._old_known: Set[int] = set()
        #: Destaging blocks re-dirtied by a write racing the destage.
        self._redirty: Set[int] = set()
        self._dirty_count = 0

    # -- introspection -----------------------------------------------------
    def __contains__(self, block: int) -> bool:
        return block in self._state

    def __len__(self) -> int:
        return len(self._state)

    def state_of(self, block: int) -> Optional[BlockState]:
        return self._state.get(block)

    @property
    def dirty_count(self) -> int:
        """Blocks pinned by unwritten data (dirty + destaging)."""
        return self._dirty_count

    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def invalidations(self) -> int:
        return self.stats.invalidations

    def hit_rate(self) -> float:
        return self.stats.hit_rate()

    def old_known(self, block: int) -> bool:
        """True when the cache can supply the block's pre-write content."""
        return block in self._old_known

    def dirty_blocks(self) -> List[int]:
        """Sorted blocks awaiting destage (excludes in-flight ones)."""
        return sorted(
            b for b, s in self._state.items() if s is BlockState.DIRTY
        )

    # -- read path ---------------------------------------------------------
    def lookup(self, block: int) -> bool:
        """True on hit (and refreshes recency)."""
        if block in self._state:
            self.policy.on_hit(block)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, block: int) -> None:
        """Cache a clean copy (read fill), evicting as needed.

        Idempotent on resident blocks: refreshes recency and never
        downgrades a dirty block to clean.
        """
        if block in self._state:
            self.policy.on_hit(block)
            return
        self._admit(block, BlockState.CLEAN)
        self.stats.fills += 1

    # ``fill`` is the cache-stage name for a read-miss / RMW fill.
    fill = insert

    # -- write path --------------------------------------------------------
    def admit_write(self, block: int, full_block: bool) -> WriteAdmission:
        """Admit one write in write-back mode (see :class:`WriteAdmission`).

        ``full_block`` marks a write covering the whole block: it needs
        no fill, but its pre-write content stays unknown (no RMW
        absorption) unless the block was already resident.
        """
        state = self._state.get(block)
        if state is BlockState.DIRTY:
            self.policy.on_hit(block)
            self.stats.write_absorbed += 1
            return WriteAdmission.ABSORBED
        if state is BlockState.DESTAGING:
            # The in-flight destage carries stale content; remember to
            # re-dirty at completion.  The old content is gone either
            # way, so RMW absorption is off for the next destage.
            self._redirty.add(block)
            self._old_known.discard(block)
            self.stats.write_absorbed += 1
            return WriteAdmission.ABSORBED
        if state is BlockState.CLEAN:
            # Clean resident copy == on-disk content: the cache knows
            # the pre-write bytes, so a partial-stripe destage may skip
            # this block's old-data pre-read.
            self._state[block] = BlockState.DIRTY
            self._old_known.add(block)
            self.policy.on_hit(block)
            self._note_dirty(+1)
            return WriteAdmission.DIRTIED
        if not full_block:
            return WriteAdmission.NEEDS_FILL
        self._admit(block, BlockState.DIRTY)
        self._note_dirty(+1)
        return WriteAdmission.DIRTIED

    # -- destage lifecycle -------------------------------------------------
    def begin_destage(self, blocks: List[int]) -> None:
        for b in blocks:
            if self._state.get(b) is not BlockState.DIRTY:
                raise CacheStateError(
                    f"block {b}: begin_destage on state "
                    f"{self._state.get(b)}"
                )
            self._state[b] = BlockState.DESTAGING

    def complete_destage(self, blocks: List[int]) -> None:
        """The destage write committed: blocks turn clean (or stay
        dirty if a racing write re-dirtied them mid-flight).  Blocks
        invalidated by a peer while in flight are simply gone."""
        for b in blocks:
            if self._state.get(b) is not BlockState.DESTAGING:
                continue  # superseded by a peer's write-invalidate
            if b in self._redirty:
                self._redirty.discard(b)
                self._state[b] = BlockState.DIRTY
                continue
            self._state[b] = BlockState.CLEAN
            self._old_known.discard(b)
            self._note_dirty(-1)
            self.stats.destaged += 1
            if self.track_blocks:
                self.stats.destaged_blocks.add(b)

    def destage_lost(self, blocks: List[int]) -> None:
        """The destage write failed unrecoverably: each block's dirty
        content is reported lost exactly once (a re-dirtied block is
        *not* lost — its newer content is still pending)."""
        for b in blocks:
            if self._state.get(b) is not BlockState.DESTAGING:
                continue
            if b in self._redirty:
                self._redirty.discard(b)
                self._state[b] = BlockState.DIRTY
                continue
            del self._state[b]
            self._old_known.discard(b)
            self.policy.on_remove(b)
            self._note_dirty(-1)
            self.stats.lost += 1
            if self.track_blocks:
                self.stats.lost_blocks.add(b)

    # -- invalidation ------------------------------------------------------
    def invalidate(self, block: int) -> bool:
        """Drop a block (returns True if it was cached).  Dirty or
        destaging copies are superseded by the invalidating writer —
        write-invalidate means the latest writer owns the block."""
        state = self._state.pop(block, None)
        if state is None:
            return False
        if state is not BlockState.CLEAN:
            self._note_dirty(-1)
        self._old_known.discard(block)
        self._redirty.discard(block)
        self.policy.on_remove(block)
        self.stats.invalidations += 1
        return True

    # -- internals ---------------------------------------------------------
    def _admit(self, block: int, state: BlockState) -> None:
        while len(self._state) >= self.capacity_blocks:
            victim = self._clean_victim()
            if victim is None:
                break  # everything pinned dirty: overcommit briefly
            del self._state[victim]
            self._old_known.discard(victim)
            self.policy.on_evict(victim)
            self.stats.evictions += 1
        self._state[block] = state
        self.policy.on_insert(block)

    def _clean_victim(self) -> Optional[int]:
        for candidate in self.policy.victims():
            if self._state.get(candidate) is BlockState.CLEAN:
                return candidate
        return None

    def _note_dirty(self, delta: int) -> None:
        self._dirty_count += delta
        if self._dirty_count > self.stats.dirty_hw:
            self.stats.dirty_hw = self._dirty_count
