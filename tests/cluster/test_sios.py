"""Single-I/O-space address arithmetic."""

import pytest

from repro.cluster.sios import SingleIOSpace
from repro.errors import AddressError
from repro.io.request import split_into_blocks
from repro.raid import make_layout
from repro.units import KiB


def sios(name="raid0", n_disks=4):
    lay = make_layout(
        name,
        n_disks=n_disks,
        block_size=32 * KiB,
        disk_capacity=64 * 32 * KiB,
    )
    return SingleIOSpace(lay)


def test_pieces_cover_range_exactly():
    s = sios()
    pieces = s.pieces(10_000, 100_000)
    assert sum(p.nbytes for p in pieces) == 100_000
    # Contiguity across pieces.
    pos = 10_000
    for p in pieces:
        assert p.block * s.block_size + p.intra == pos
        pos += p.nbytes


def test_pieces_respect_block_boundaries():
    s = sios()
    for p in s.pieces(5, 200_000):
        assert p.intra + p.nbytes <= s.block_size


def test_single_block_piece():
    s = sios()
    pieces = s.pieces(0, 32 * KiB)
    assert len(pieces) == 1
    assert pieces[0].intra == 0 and pieces[0].nbytes == 32 * KiB


def test_out_of_range_rejected():
    s = sios()
    with pytest.raises(AddressError):
        s.pieces(s.capacity, 1)
    with pytest.raises(AddressError):
        s.pieces(-1, 10)


def test_empty_range_ok():
    assert sios().pieces(0, 0) == []


def test_pieces_carry_placement():
    s = sios()
    p = s.pieces(0, 32 * KiB)[0]
    assert p.disk == 0
    assert p.disk_offset == 0
    p2 = s.pieces(32 * KiB, 32 * KiB)[0]
    assert p2.disk == 1


def test_locality_counts():
    s = sios()
    pieces = s.pieces(0, 4 * 32 * KiB)  # one block per disk
    local, remote = s.locality(pieces, node=0)
    assert local == 1 and remote == 3


def test_split_into_blocks_edges():
    assert split_into_blocks(0, 0, 10) == []
    assert split_into_blocks(5, 10, 10) == [(0, 5, 5), (1, 0, 5)]
    with pytest.raises(ValueError):
        split_into_blocks(0, 10, 0)
    with pytest.raises(ValueError):
        split_into_blocks(0, -1, 10)
