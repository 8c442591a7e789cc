"""Hypothesis: the block allocator against reference models.

Besides a plain set model, the sparse allocator is checked against the
dense bytearray allocator it replaced (kept below as the reference):
every allocate/free sequence must hand out the same blocks in the same
order and raise the same errors.
"""

import tracemalloc
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import build_cluster
from repro.config import trojans_cluster
from repro.errors import NoSpaceError
from repro.fs.allocator import BlockAllocator
from repro.workloads.andrew import AndrewBenchmark


class DenseAllocator:
    """Reference: one byte per block of the region, next-fit with hint."""

    def __init__(self, first_block: int, n_blocks: int):
        self.first_block = first_block
        self.n_blocks = n_blocks
        self._free = bytearray(b"\x01" * n_blocks)
        self._hint = 0
        self.allocated = 0

    @property
    def free_count(self) -> int:
        return self.n_blocks - self.allocated

    def allocate(self, count: int) -> List[int]:
        if count > self.free_count:
            raise NoSpaceError(
                f"need {count} blocks, only {self.free_count} free"
            )
        out: List[int] = []
        idx = self._hint
        while len(out) < count:
            if self._free[idx]:
                self._free[idx] = 0
                out.append(self.first_block + idx)
            idx = (idx + 1) % self.n_blocks
        self._hint = idx
        self.allocated += count
        return out

    def free(self, blocks) -> None:
        for b in blocks:
            self._free[b - self.first_block] = 1
            self.allocated -= 1

    def is_free(self, block: int) -> bool:
        return bool(self._free[block - self.first_block])


def _assert_same_state(sparse, dense):
    assert sparse.free_count == dense.free_count
    assert sparse.allocated == dense.allocated
    first = dense.first_block
    for b in range(first, first + dense.n_blocks):
        assert sparse.is_free(b) == dense.is_free(b)


@given(
    first=st.integers(min_value=0, max_value=1000),
    n=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_matches_dense_reference(first, n, data):
    # Small regions so the hint wraps and the region fills often.
    sparse = BlockAllocator(first, n)
    dense = DenseAllocator(first, n)
    owned: List[int] = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        if owned and data.draw(st.booleans()):
            picked = data.draw(
                st.lists(
                    st.sampled_from(owned), min_size=1, unique=True
                )
            )
            sparse.free(picked)
            dense.free(picked)
            owned = [b for b in owned if b not in picked]
        else:
            count = data.draw(st.integers(min_value=1, max_value=n + 2))
            try:
                want = dense.allocate(count)
            except NoSpaceError as exc:
                try:
                    sparse.allocate(count)
                except NoSpaceError as got:
                    assert str(got) == str(exc)
                else:
                    raise AssertionError("expected NoSpaceError")
            else:
                assert sparse.allocate(count) == want
                owned += want
        _assert_same_state(sparse, dense)


def test_full_region_matches_dense_reference():
    sparse = BlockAllocator(5, 6)
    dense = DenseAllocator(5, 6)
    assert sparse.allocate(4) == dense.allocate(4)
    sparse.free([5, 6])
    dense.free([5, 6])
    # Hint at index 4: takes 9, 10, wraps to 5, 6 — the region is full.
    assert sparse.allocate(4) == dense.allocate(4) == [9, 10, 5, 6]
    _assert_same_state(sparse, dense)
    for a in (sparse, dense):
        try:
            a.allocate(1)
            raise AssertionError("expected NoSpaceError")
        except NoSpaceError:
            pass
    sparse.free([7])
    dense.free([7])
    assert sparse.allocate(1) == dense.allocate(1) == [7]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huge_region_costs_nothing_up_front():
    peak = _peak_bytes(lambda: BlockAllocator(0, 1 << 32))
    assert peak < 4096, f"peak allocation {peak:,} B"


def test_andrew_setup_memory_is_independent_of_disk_size():
    # RAID-5 over the trojans disks: a 26.9 M-block file system, of
    # which Andrew touches a few hundred blocks.
    cluster = build_cluster(trojans_cluster(), architecture="raid5")
    peak = _peak_bytes(lambda: AndrewBenchmark(cluster, 8))
    assert peak < 1_000_000, f"peak allocation {peak:,} B"


@given(
    n=st.integers(min_value=1, max_value=200),
    requests=st.lists(st.integers(min_value=1, max_value=20), max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_allocations_unique_and_in_range(n, requests):
    a = BlockAllocator(first_block=7, n_blocks=n)
    owned = set()
    for count in requests:
        if count > a.free_count:
            try:
                a.allocate(count)
                raise AssertionError("expected NoSpaceError")
            except NoSpaceError:
                continue
        got = a.allocate(count)
        assert len(got) == count
        for b in got:
            assert 7 <= b < 7 + n
            assert b not in owned
            owned.add(b)
    assert a.allocated == len(owned)


class AllocatorMachine(RuleBasedStateMachine):
    """Stateful test: allocate/free sequences preserve the bitmap."""

    def __init__(self):
        super().__init__()
        self.alloc = BlockAllocator(first_block=0, n_blocks=64)
        self.owned = set()

    @rule(count=st.integers(min_value=1, max_value=16))
    def allocate(self, count):
        if count > self.alloc.free_count:
            try:
                self.alloc.allocate(count)
                raise AssertionError("expected NoSpaceError")
            except NoSpaceError:
                return
        got = self.alloc.allocate(count)
        assert not (set(got) & self.owned)
        self.owned |= set(got)

    @precondition(lambda self: self.owned)
    @rule(data=st.data())
    def free_some(self, data):
        subset = data.draw(
            st.sets(st.sampled_from(sorted(self.owned)), min_size=1)
        )
        self.alloc.free(sorted(subset))
        self.owned -= subset

    @invariant()
    def accounting_matches(self):
        assert self.alloc.allocated == len(self.owned)
        assert self.alloc.free_count == 64 - len(self.owned)
        for b in range(64):
            assert self.alloc.is_free(b) == (b not in self.owned)


TestAllocatorMachine = AllocatorMachine.TestCase
TestAllocatorMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
