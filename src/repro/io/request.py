"""Splitting logical byte ranges of the single I/O space into blocks.

A client addresses a *global* byte range of the virtual disk; the RAID
layout maps each block of it to a per-disk operation.
"""

from __future__ import annotations

from typing import List, Tuple


def split_into_blocks(
    offset: int, nbytes: int, block_size: int
) -> List[Tuple[int, int, int]]:
    """Split a byte range into (block_index, intra_offset, length) pieces.

    Pieces never cross block boundaries; partial first/last blocks are
    represented by a non-zero ``intra_offset`` / short ``length``.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if nbytes < 0:
        raise ValueError("negative size")
    out: List[Tuple[int, int, int]] = []
    pos = offset
    end = offset + nbytes
    while pos < end:
        block = pos // block_size
        intra = pos - block * block_size
        take = min(block_size - intra, end - pos)
        out.append((block, intra, take))
        pos += take
    return out
