"""Hypothesis: the one block splitter against a loop-based reference.

``repro.raid.plan.split_into_blocks`` answers a range inside one block
with a single ``divmod``; the reference below walks the range one
block boundary at a time, as the splitter did before that shortcut.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raid.plan import split_into_blocks


def reference_split(offset, nbytes, block_size):
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if nbytes < 0:
        raise ValueError("negative size")
    out = []
    pos = offset
    end = offset + nbytes
    while pos < end:
        block = pos // block_size
        intra = pos - block * block_size
        take = min(block_size - intra, end - pos)
        out.append((block, intra, take))
        pos += take
    return out


@settings(max_examples=400, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=1 << 40),
    nbytes=st.integers(min_value=0, max_value=1 << 18),
    block_size=st.sampled_from([1, 3, 512, 4096, 32 * 1024, 100_000]),
)
def test_splitter_matches_reference(offset, nbytes, block_size):
    assert split_into_blocks(offset, nbytes, block_size) == reference_split(
        offset, nbytes, block_size
    )


@settings(max_examples=200, deadline=None)
@given(
    block=st.integers(min_value=0, max_value=1 << 20),
    blocks=st.integers(min_value=0, max_value=5),
    head=st.sampled_from([0, 1, 4095]),
    tail=st.sampled_from([0, 1, 4095]),
)
def test_splitter_near_block_ends(block, blocks, head, tail):
    # Ranges starting and ending on, just after or just before a block
    # boundary: the one-block case's ``intra + nbytes <= block_size``
    # edge and the multi-block loop's last piece.
    bs = 4096
    offset = block * bs + head
    nbytes = max(0, blocks * bs + tail - head)
    assert split_into_blocks(offset, nbytes, bs) == reference_split(
        offset, nbytes, bs
    )


def test_splitter_edges():
    bs = 4096
    assert split_into_blocks(5 * bs, 0, bs) == []
    assert split_into_blocks(5 * bs + 7, 0, bs) == []
    # Exact block ends: a whole block, and a range ending on a boundary.
    assert split_into_blocks(5 * bs, bs, bs) == [(5, 0, bs)]
    assert split_into_blocks(5 * bs + 10, bs - 10, bs) == [(5, 10, bs - 10)]
    # One byte over the boundary spills into the next block.
    assert split_into_blocks(5 * bs + 10, bs - 9, bs) == [
        (5, 10, bs - 10), (6, 0, 1),
    ]
    # Multi-block: partial head, full middle blocks, partial tail.
    assert split_into_blocks(bs - 1, 2 * bs + 2, bs) == [
        (0, bs - 1, 1), (1, 0, bs), (2, 0, bs), (3, 0, 1),
    ]


@pytest.mark.parametrize("offset,nbytes,block_size", [
    (0, -1, 4096), (100, -5, 4096), (0, 10, 0), (0, 10, -4096), (0, 0, 0),
])
def test_splitter_rejects_bad_sizes(offset, nbytes, block_size):
    with pytest.raises(ValueError):
        split_into_blocks(offset, nbytes, block_size)
    with pytest.raises(ValueError):
        reference_split(offset, nbytes, block_size)
