"""RAID-5: rotating parity (left-symmetric).

A stripe holds ``D-1`` data blocks plus one parity block; the parity
disk rotates across stripes.  Small writes pay the classic
read-modify-write penalty — the "small write problem" RAID-x is designed
to eliminate — planned by :class:`repro.raid.planners.Raid5Planner` and
executed by the shared :mod:`repro.cluster.engine`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List

from repro.raid.layout import Layout, Placement


class Raid5Layout(Layout):
    """Left-symmetric RAID-5 over all disks."""

    name = "raid5"

    @property
    def data_rows(self) -> int:
        return self.rows

    @cached_property
    def data_blocks(self) -> int:
        return self.rows * (self.n_disks - 1)

    # -- per-stripe geometry ---------------------------------------------
    def parity_disk(self, stripe: int) -> int:
        """The disk carrying the stripe's parity block (rotating)."""
        return (self.n_disks - 1 - stripe) % self.n_disks

    def parity_location(self, stripe: int) -> Placement:
        """Placement of the stripe's parity block."""
        return Placement(self.parity_disk(stripe), stripe * self.block_size)

    # data_location is table-cached by the Layout base class: the
    # left-symmetric disk pattern repeats every D stripes = D(D-1)
    # blocks, with offsets advancing D rows per rotation.
    def _placement_rotation(self) -> tuple[int, int]:
        D = self.n_disks
        return D * (D - 1), D * self.block_size

    def _data_location_uncached(self, block: int) -> Placement:
        width = self.n_disks - 1
        stripe = block // width
        j = block % width
        pdisk = self.parity_disk(stripe)
        # Left-symmetric: data fills disks starting after the parity disk.
        disk = (pdisk + 1 + j) % self.n_disks
        return Placement(disk, stripe * self.block_size)

    def stripe_of(self, block: int) -> int:
        self.check_block(block)
        return block // (self.n_disks - 1)

    def stripe_blocks(self, stripe: int) -> List[int]:
        width = self.n_disks - 1
        start = stripe * width
        return [b for b in range(start, start + width) if b < self.data_blocks]

    def tolerates(self, failed: Iterable[int]) -> bool:
        return len(set(failed)) <= 1

    def max_fault_coverage(self) -> int:
        return 1
