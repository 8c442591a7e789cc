"""Checkpoint placement: disk-group regions and the local-image property."""

import pytest

from repro.checkpoint.placement import (
    local_image_region,
    region_blocks_for_disk_group,
)
from repro.errors import ConfigurationError
from repro.raid import make_layout


def layout(n=4, k=3, rows=64):
    return make_layout(
        "raidx",
        n_disks=n * k,
        block_size=1,
        disk_capacity=rows,
        stripe_width=n,
    )


def test_disk_group_region_stays_in_group():
    lay = layout()
    for group in range(3):
        blocks = region_blocks_for_disk_group(lay, group, 16)
        assert len(blocks) == 16
        for b in blocks:
            assert lay.disk_group(lay.data_location(b).disk) == group


def test_disk_group_region_stripes_over_all_group_disks():
    lay = layout()
    blocks = region_blocks_for_disk_group(lay, 1, 8)
    disks = {lay.data_location(b).disk for b in blocks}
    assert disks == {4, 5, 6, 7}


def test_disk_group_region_bad_group():
    lay = layout()
    with pytest.raises(ConfigurationError):
        region_blocks_for_disk_group(lay, 3, 4)


def test_disk_group_region_capacity_guard():
    lay = layout(rows=4)
    with pytest.raises(ConfigurationError):
        region_blocks_for_disk_group(lay, 0, 10_000)


def test_local_image_region_invariant():
    lay = layout()
    for node in range(4):
        blocks = local_image_region(lay, node, 9, disk_group=1)
        assert len(blocks) == 9
        for b in blocks:
            image_disk = lay.mirror_slot(b)[1]
            assert image_disk % 4 == node
            assert lay.disk_group(image_disk) == 1


def test_local_image_region_data_still_striped():
    lay = layout()
    blocks = local_image_region(lay, 0, 9, disk_group=0)
    data_disks = {lay.data_location(b).disk for b in blocks}
    assert len(data_disks) > 1  # striped writes, not a single disk


def test_local_image_regions_disjoint_across_nodes():
    lay = layout()
    seen = set()
    for node in range(4):
        blocks = set(local_image_region(lay, node, 9, disk_group=0))
        assert not blocks & seen
        seen |= blocks


def test_local_image_region_bad_node():
    lay = layout()
    with pytest.raises(ConfigurationError):
        local_image_region(lay, 7, 4)


def test_local_image_region_capacity_guard():
    lay = layout(rows=4)
    with pytest.raises(ConfigurationError):
        local_image_region(lay, 0, 10_000)
