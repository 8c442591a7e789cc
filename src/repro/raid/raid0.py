"""RAID-0: plain striping, no redundancy.

Included as the bandwidth upper bound the paper's Table 2 compares
against (RAID-x matches its read/write bandwidth while adding fault
tolerance).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List

from repro.raid.layout import Layout


class Raid0Layout(Layout):
    """Block ``i`` → disk ``i mod D``, row ``i // D``."""

    name = "raid0"
    redundant = False

    @property
    def data_rows(self) -> int:
        return self.rows

    @cached_property
    def data_blocks(self) -> int:
        return self.rows * self.n_disks

    # data_location: the Layout base class's table-cached striping.

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
        return not set(failed)
