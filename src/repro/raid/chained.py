"""Chained declustering (Hsiao & DeWitt 1990) — the paper's Fig. 1b.

Data stripes across all disks in the top half; disk ``d``'s blocks are
mirrored block-by-block on disk ``(d+1) mod D`` in the bottom half
("skewed mirroring").  Both copies are written in the foreground, so
writes cost two disk ops like RAID-10, but mirror *reads* spread over
all disks rather than pair partners, and a failure's extra load chains
around the ring.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List

from repro.raid.layout import Layout, Placement


class ChainedDeclusteringLayout(Layout):
    """Striped data, mirror of disk d chained onto disk (d+1) mod D."""

    name = "chained"

    @property
    def data_rows(self) -> int:
        return self.rows // 2

    @cached_property
    def data_blocks(self) -> int:
        return self.data_rows * self.n_disks

    @property
    def mirror_base(self) -> int:
        """Byte offset where the mirror region starts on every disk."""
        return self.data_rows * self.block_size

    # data_location: the Layout base class's table-cached striping.

    def redundancy_locations(self, block: int) -> List[Placement]:
        self.check_block(block)
        disk = (block + 1) % self.n_disks
        row = block // self.n_disks
        return [Placement(disk, self.mirror_base + row * self.block_size)]

    def read_sources(self, block: int) -> List[Placement]:
        # Primary first: the skewed mirror copy lives in the far mirror
        # region, so routine reads stay on the sequential data region and
        # the mirror serves fail-over (and rebalancing after a failure).
        return [self.data_location(block)] + self.redundancy_locations(block)

    def stripe_of(self, block: int) -> int:
        self.check_block(block)
        return block // self.stripe_width

    def stripe_blocks(self, stripe: int) -> List[int]:
        start = stripe * self.stripe_width
        return [
            b
            for b in range(start, start + self.stripe_width)
            if b < self.data_blocks
        ]

    def tolerates(self, failed: Iterable[int]) -> bool:
        failed = set(failed)
        if len(failed) >= self.n_disks:
            return False
        # Data is lost iff two cyclically adjacent disks both fail.
        for d in failed:
            if (d + 1) % self.n_disks in failed:
                return False
        return True

    def max_fault_coverage(self) -> int:
        return self.n_disks // 2
