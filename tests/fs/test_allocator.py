"""Block allocator: bitmap correctness and contiguity hint."""

import pytest

from repro.errors import NoSpaceError
from repro.fs.allocator import BlockAllocator


def test_allocates_from_region_start():
    a = BlockAllocator(first_block=100, n_blocks=10)
    assert a.allocate(3) == [100, 101, 102]
    assert a.free_count == 7


def test_allocation_prefers_contiguity():
    a = BlockAllocator(0, 100)
    first = a.allocate(5)
    second = a.allocate(5)
    assert second[0] == first[-1] + 1


def test_free_and_reuse():
    a = BlockAllocator(0, 4)
    blocks = a.allocate(4)
    a.free(blocks[:2])
    assert a.free_count == 2
    got = a.allocate(2)
    assert sorted(got) == blocks[:2]


def test_exhaustion_raises():
    a = BlockAllocator(0, 3)
    a.allocate(3)
    with pytest.raises(NoSpaceError):
        a.allocate(1)


def test_over_request_raises_without_leak():
    a = BlockAllocator(0, 3)
    with pytest.raises(NoSpaceError):
        a.allocate(4)
    assert a.free_count == 3


def test_double_free_rejected():
    a = BlockAllocator(0, 4)
    blocks = a.allocate(1)
    a.free(blocks)
    with pytest.raises(ValueError):
        a.free(blocks)


def test_foreign_block_free_rejected():
    a = BlockAllocator(10, 4)
    with pytest.raises(ValueError):
        a.free([3])


def test_is_free_queries():
    a = BlockAllocator(0, 4)
    blocks = a.allocate(2)
    assert not a.is_free(blocks[0])
    assert a.is_free(3)
    with pytest.raises(ValueError):
        a.is_free(99)


def test_invalid_params():
    with pytest.raises(ValueError):
        BlockAllocator(0, 0)
    a = BlockAllocator(0, 4)
    with pytest.raises(ValueError):
        a.allocate(0)


def test_wraparound_scan():
    a = BlockAllocator(0, 6)
    first = a.allocate(4)  # hint now at 4
    a.free(first[:2])  # holes at 0,1
    got = a.allocate(4)  # takes 4,5 then wraps to 0,1
    assert sorted(got) == [0, 1, 4, 5]


@pytest.mark.parametrize("bad", ["repeat", "outside", "unallocated"])
def test_rejected_free_releases_nothing(bad):
    a = BlockAllocator(0, 8)
    b, other = a.allocate(2)
    call = {"repeat": [b, b], "outside": [b, 99], "unallocated": [b, 5]}
    with pytest.raises(ValueError):
        a.free(call[bad])
    assert a.free_count == 6
    assert not a.is_free(b)
    assert not a.is_free(other)
