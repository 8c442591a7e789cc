"""Single I/O space: the global virtual disk over all distributed disks.

``SingleIOSpace`` names the virtual disk's extent and block size and
knows which node drives which disk (device masquerading — every node
sees all nk disks as local).  Splitting a logical byte range into
per-disk pieces is the planner's job
(:meth:`repro.raid.planners.Planner.pieces_for`).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.raid.layout import Layout
from repro.raid.plan import Piece

__all__ = ["Piece", "SingleIOSpace"]


class SingleIOSpace:
    """Global block addressing over the distributed array."""

    def __init__(self, layout: Layout):
        self.layout = layout

    @property
    def capacity(self) -> int:
        """Addressable bytes of the virtual disk."""
        return self.layout.data_capacity

    @property
    def block_size(self) -> int:
        return self.layout.block_size

    def node_of_disk(self, disk: int) -> int:
        return self.layout.node_of_disk(disk)

    def locality(self, pieces: List[Piece], node: int) -> Tuple[int, int]:
        """(local, remote) piece counts as seen from ``node``."""
        local = sum(
            1 for p in pieces if self.node_of_disk(p.disk) == node
        )
        return local, len(pieces) - local
