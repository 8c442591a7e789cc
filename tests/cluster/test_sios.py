"""Single-I/O-space address arithmetic: ``Planner.pieces_for`` splits a
logical byte range of the virtual disk into per-disk pieces."""

import pytest

from repro.cluster.sios import SingleIOSpace
from repro.errors import AddressError
from repro.raid import make_layout
from repro.raid.plan import Piece, split_into_blocks
from repro.raid.planners import make_planner
from repro.units import KiB

ARCHS = ["raid0", "raid5", "raid10", "chained", "raidx"]


def planner(name="raid0", n_disks=4):
    lay = make_layout(
        name,
        n_disks=n_disks,
        block_size=32 * KiB,
        disk_capacity=64 * 32 * KiB,
    )
    return make_planner(name, lay)


def test_pieces_cover_range_exactly():
    p = planner()
    pieces = p.pieces_for(10_000, 100_000)
    assert sum(piece.nbytes for piece in pieces) == 100_000
    # Contiguity across pieces.
    pos = 10_000
    for piece in pieces:
        assert piece.block * p.layout.block_size + piece.intra == pos
        pos += piece.nbytes


def test_pieces_respect_block_boundaries():
    p = planner()
    for piece in p.pieces_for(5, 200_000):
        assert piece.intra + piece.nbytes <= p.layout.block_size


def test_single_block_piece():
    pieces = planner().pieces_for(0, 32 * KiB)
    assert len(pieces) == 1
    assert pieces[0].intra == 0 and pieces[0].nbytes == 32 * KiB


def test_out_of_range_rejected():
    p = planner()
    with pytest.raises(AddressError):
        p.pieces_for(p.layout.data_capacity, 1)
    with pytest.raises(AddressError):
        p.pieces_for(-1, 10)


def test_empty_range_ok():
    assert planner().pieces_for(0, 0) == []


def test_pieces_carry_placement():
    p = planner()
    piece = p.pieces_for(0, 32 * KiB)[0]
    assert piece.disk == 0
    assert piece.disk_offset == 0
    p2 = p.pieces_for(32 * KiB, 32 * KiB)[0]
    assert p2.disk == 1


def test_locality_counts():
    p = planner()
    pieces = p.pieces_for(0, 4 * 32 * KiB)  # one block per disk
    local, remote = SingleIOSpace(p.layout).locality(pieces, node=0)
    assert local == 1 and remote == 3


def test_split_into_blocks_edges():
    assert split_into_blocks(0, 0, 10) == []
    assert split_into_blocks(5, 10, 10) == [(0, 5, 5), (1, 0, 5)]
    with pytest.raises(ValueError):
        split_into_blocks(0, 10, 0)
    with pytest.raises(ValueError):
        split_into_blocks(0, -1, 10)


@pytest.mark.parametrize("arch", ARCHS)
def test_pieces_for_address_contract(arch):
    # The contract the single I/O space's own splitter had: the layout's
    # primary placement for every block piece, the whole virtual disk
    # addressable, and AddressError just outside it on either side.
    p = planner(arch, n_disks=6)
    lay = p.layout
    bs = lay.block_size
    capacity = lay.data_capacity
    assert capacity == lay.data_blocks * bs
    for offset, nbytes in [
        (0, bs), (bs // 2, 3 * bs), (capacity - bs, bs),
        (capacity - 5, 5), (capacity, 0), (7, 0), (0, capacity),
    ]:
        assert p.pieces_for(offset, nbytes) == [
            Piece(block, intra, take, lay.data_location(block))
            for block, intra, take in split_into_blocks(offset, nbytes, bs)
        ]
    for offset, nbytes in [(-1, 1), (-1, 0), (capacity, 1), (capacity - 1, 2)]:
        with pytest.raises(AddressError):
            p.pieces_for(offset, nbytes)
