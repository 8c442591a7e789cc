"""Single I/O space: the global virtual disk over all distributed disks.

``SingleIOSpace`` owns the address arithmetic: it maps a logical byte
range of the virtual disk to per-disk *pieces* via the RAID layout, and
knows which node drives which disk (device masquerading — every node
sees all nk disks as local).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import AddressError
from repro.io.request import split_into_blocks
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

    def check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity:
            raise AddressError(
                f"range [{offset}, {offset + nbytes}) outside virtual disk "
                f"of {self.capacity} bytes"
            )

    def pieces(self, offset: int, nbytes: int) -> List[Piece]:
        """Split a logical byte range into per-disk pieces."""
        self.check_range(offset, nbytes)
        out = []
        for block, intra, take in split_into_blocks(
            offset, nbytes, self.block_size
        ):
            out.append(
                Piece(
                    block=block,
                    intra=intra,
                    nbytes=take,
                    placement=self.layout.data_location(block),
                )
            )
        return out

    def locality(self, pieces: List[Piece], node: int) -> Tuple[int, int]:
        """(local, remote) piece counts as seen from ``node``."""
        local = sum(
            1 for p in pieces if self.node_of_disk(p.disk) == node
        )
        return local, len(pieces) - local
