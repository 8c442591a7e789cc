"""RAID-10: striped mirroring over disk pairs.

Disks pair up as (0,1), (2,3), …; data stripes across the primaries and
every block is mirrored on its pair partner **in the foreground** — both
copies must land before a write completes, which is why RAID-10 writes
at half of RAID-x's foreground bandwidth (paper's Table 2).

Reads alternate between the two copies for load balance.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List

from repro.errors import ConfigurationError
from repro.raid.layout import Layout, Placement


class Raid10Layout(Layout):
    """Mirrored pairs, striped; requires an even number of disks."""

    name = "raid10"

    def __init__(
        self,
        n_disks: int,
        block_size: int,
        disk_capacity: int,
        stripe_width: int | None = None,
    ):
        super().__init__(n_disks, block_size, disk_capacity, stripe_width)
        if n_disks % 2:
            raise ConfigurationError("RAID-10 needs an even disk count")
        self.n_pairs = n_disks // 2

    @property
    def data_rows(self) -> int:
        return self.rows

    @cached_property
    def data_blocks(self) -> int:
        return self.rows * self.n_pairs

    # data_location is table-cached by the Layout base class.
    def _placement_rotation(self) -> tuple[int, int]:
        return self.n_pairs, self.block_size

    def _data_location_uncached(self, block: int) -> Placement:
        pair = block % self.n_pairs
        row = block // self.n_pairs
        return Placement(2 * pair, row * self.block_size)

    def redundancy_locations(self, block: int) -> List[Placement]:
        self.check_block(block)
        pair = block % self.n_pairs
        row = block // self.n_pairs
        return [Placement(2 * pair + 1, row * self.block_size)]

    def read_sources(self, block: int) -> List[Placement]:
        primary = self.data_location(block)
        mirror = self.redundancy_locations(block)[0]
        # Alternate preferred copy by stripe row to spread read load.
        if (block // self.n_pairs) % 2:
            return [mirror, primary]
        return [primary, mirror]

    def stripe_of(self, block: int) -> int:
        self.check_block(block)
        return block // self.n_pairs

    def stripe_blocks(self, stripe: int) -> List[int]:
        start = stripe * self.n_pairs
        return [
            b
            for b in range(start, start + self.n_pairs)
            if b < self.data_blocks
        ]

    def tolerates(self, failed: Iterable[int]) -> bool:
        failed = set(failed)
        for pair in range(self.n_pairs):
            if 2 * pair in failed and 2 * pair + 1 in failed:
                return False
        return True

    def max_fault_coverage(self) -> int:
        return self.n_pairs
