"""Hypothesis properties of checkpoint placement on RAID-x geometries."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.placement import (
    local_image_region,
    region_blocks_for_disk_group,
)
from repro.raid import make_layout


@st.composite
def geometry(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    k = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.integers(min_value=16, max_value=48))
    return make_layout(
        "raidx",
        n_disks=n * k,
        block_size=1,
        disk_capacity=rows,
        stripe_width=n,
    )


@given(lay=geometry(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_local_image_region_invariant_all_nodes(lay, data):
    node = data.draw(st.integers(0, lay.n - 1))
    group = data.draw(st.integers(0, lay.k - 1))
    # A node's residue class holds ~data_rows blocks per disk group;
    # stay comfortably below that bound.
    upper = max(1, min(2 * (lay.n - 1), lay.data_rows // 2))
    want = data.draw(st.integers(1, upper))
    blocks = local_image_region(lay, node, want, disk_group=group)
    assert len(blocks) == want
    for b in blocks:
        image_disk = lay.mirror_slot(b)[1]
        assert image_disk % lay.n == node
        assert lay.disk_group(image_disk) == group


@given(lay=geometry())
@settings(max_examples=30, deadline=None)
def test_local_image_regions_partition_nodes(lay):
    """Distinct nodes' regions never share blocks."""
    want = lay.n - 1
    seen = set()
    for node in range(lay.n):
        blocks = set(local_image_region(lay, node, want, disk_group=0))
        assert not blocks & seen
        seen |= blocks


@given(lay=geometry(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_disk_group_region_confined(lay, data):
    group = data.draw(st.integers(0, lay.k - 1))
    want = data.draw(st.integers(1, 3 * lay.n))
    blocks = region_blocks_for_disk_group(lay, group, want)
    assert len(blocks) == want
    assert len(set(blocks)) == want
    for b in blocks:
        assert lay.disk_group(lay.data_location(b).disk) == group


@given(lay=geometry(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_disk_group_region_stripes_fully(lay, data):
    group = data.draw(st.integers(0, lay.k - 1))
    blocks = region_blocks_for_disk_group(lay, group, 2 * lay.n)
    disks = {lay.data_location(b).disk for b in blocks}
    assert disks == set(range(group * lay.n, (group + 1) * lay.n))
