"""Block allocation: a sparse allocator with extent-friendly policy."""

from __future__ import annotations

from typing import List, Set

from repro.errors import NoSpaceError


class BlockAllocator:
    """Next-fit-with-hint allocator over the FS data region.

    Keeps the set of allocated block indices rather than a map of the
    whole region, so memory and construction cost are O(allocated), not
    O(device size) — a workload touches a few hundred blocks of a
    multi-million-block virtual disk.  The FS still models an on-disk
    bitmap: it charges one bitmap-block write per touched bitmap block
    on every allocate/free call.  The next-fit hint keeps a growing
    file's blocks nearly contiguous, which matters to the disk model's
    sequential detection.
    """

    def __init__(self, first_block: int, n_blocks: int):
        if n_blocks <= 0:
            raise ValueError("empty allocation region")
        self.first_block = first_block
        self.n_blocks = n_blocks
        self._used: Set[int] = set()  # allocated indices into the region
        self._hint = 0

    @property
    def allocated(self) -> int:
        return len(self._used)

    @property
    def free_count(self) -> int:
        return self.n_blocks - len(self._used)

    def allocate(self, count: int = 1) -> List[int]:
        """Allocate ``count`` blocks, preferring a contiguous run."""
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.free_count:
            raise NoSpaceError(
                f"need {count} blocks, only {self.free_count} free"
            )
        used = self._used
        n = self.n_blocks
        out: List[int] = []
        idx = self._hint
        scanned = 0
        while len(out) < count and scanned < n:
            if idx not in used:
                used.add(idx)
                out.append(self.first_block + idx)
            idx += 1
            if idx == n:
                idx = 0
            scanned += 1
        if len(out) < count:  # pragma: no cover - guarded by free_count
            for b in out:
                used.discard(b - self.first_block)
            raise NoSpaceError("allocator state inconsistent")
        self._hint = idx
        return out

    def free(self, blocks) -> None:
        """Return blocks to the pool.

        Atomic: every block is checked (in the region, currently
        allocated, not repeated within the call) before any is released.
        """
        used = self._used
        release: Set[int] = set()
        for b in blocks:
            idx = b - self.first_block
            if not 0 <= idx < self.n_blocks:
                raise ValueError(f"block {b} outside allocator region")
            if idx not in used or idx in release:
                raise ValueError(f"double free of block {b}")
            release.add(idx)
        used -= release

    def is_free(self, block: int) -> bool:
        idx = block - self.first_block
        if not 0 <= idx < self.n_blocks:
            raise ValueError(f"block {block} outside allocator region")
        return idx not in self._used
