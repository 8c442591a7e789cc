"""Capacity, addressing, and bounds behaviour common to all layouts."""

import pytest

from repro.errors import AddressError, ConfigurationError
from repro.raid import LAYOUTS, make_layout
from repro.units import KiB, MB


def lay(name, n_disks=4, rows=64, stripe_width=None):
    return make_layout(
        name,
        n_disks=n_disks,
        block_size=32 * KiB,
        disk_capacity=rows * 32 * KiB,
        stripe_width=stripe_width,
    )


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_invariants_hold(name):
    layout = lay(name)
    layout.verify_invariants(layout.data_blocks)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_block_out_of_range_rejected(name):
    layout = lay(name)
    with pytest.raises(AddressError):
        layout.data_location(layout.data_blocks)
    with pytest.raises(AddressError):
        layout.data_location(-1)


def test_capacities_per_layout():
    rows = 64
    assert lay("raid0", rows=rows).data_blocks == 4 * rows
    assert lay("raid5", rows=rows).data_blocks == 3 * rows
    assert lay("raid10", rows=rows).data_blocks == 2 * rows
    assert lay("chained", rows=rows).data_blocks == 4 * (rows // 2)
    # RAID-x keeps slightly under half the disk for data: the clustered
    # image rows skew up to n-2 rows past the rotation base, so an even
    # split would push tail images past the disk end (31 rows, not 32).
    raidx = lay("raidx", rows=rows)
    assert raidx.data_blocks == 4 * 31
    assert raidx.data_rows + raidx._mirror_rows_needed(
        raidx.data_rows
    ) <= rows


def _image_rows_scanned(n, data_rows):
    """Image rows the data region needs, by scanning every local index:
    ℓ sits at position ℓ mod (n-1) of mirror group ℓ // (n-1), whose
    extent starts at row (group // n)·(n-1)."""
    need = 0
    for ell in range(data_rows * n):
        group, pos = divmod(ell, n - 1)
        need = max(need, (group // n) * (n - 1) + pos + 1)
    return need


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 12])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("rows", [2, 9, 64, 131])
def test_raidx_mirror_rows_needed_matches_scan(n, k, rows):
    raidx = lay("raidx", n_disks=n * k, rows=rows, stripe_width=n)
    for data_rows in range(rows + 1):
        assert raidx._mirror_rows_needed(data_rows) == _image_rows_scanned(
            n, data_rows
        ), data_rows
    # The data region is the largest one whose images fit.
    fits = [
        d for d in range(rows // 2 + 1)
        if _image_rows_scanned(n, d) <= rows - d
    ]
    assert raidx.data_rows == max(fits)


def test_unknown_layout_rejected():
    with pytest.raises(ValueError):
        make_layout("raid6", n_disks=4, block_size=1, disk_capacity=8)


def test_too_few_disks_rejected():
    with pytest.raises(ConfigurationError):
        make_layout("raid0", n_disks=1, block_size=1, disk_capacity=8)


def test_raid10_odd_disks_rejected():
    with pytest.raises(ConfigurationError):
        make_layout("raid10", n_disks=5, block_size=1, disk_capacity=8)


def test_raidx_minimum_width():
    with pytest.raises(ConfigurationError):
        make_layout(
            "raidx", n_disks=2, block_size=1, disk_capacity=8, stripe_width=2
        )


def test_stripe_width_must_divide_disks():
    with pytest.raises(ConfigurationError):
        make_layout(
            "raid0", n_disks=6, block_size=1, disk_capacity=8, stripe_width=4
        )


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_stripe_blocks_partition_address_space(name):
    layout = lay(name)
    seen = set()
    s = 0
    while len(seen) < layout.data_blocks:
        blocks = layout.stripe_blocks(s)
        assert blocks, f"stripe {s} empty before covering all blocks"
        for b in blocks:
            assert b not in seen
            assert layout.stripe_of(b) == s
            seen.add(b)
        s += 1
    assert seen == set(range(layout.data_blocks))


@pytest.mark.parametrize("name", ["raid10", "chained", "raidx"])
def test_mirrored_layouts_have_one_image(name):
    layout = lay(name)
    for b in range(layout.data_blocks):
        images = layout.redundancy_locations(b)
        assert len(images) == 1
        assert images[0].disk != layout.data_location(b).disk


@pytest.mark.parametrize("name", ["raid0", "raid5"])
def test_unmirrored_layouts_have_no_images(name):
    layout = lay(name)
    assert layout.redundancy_locations(0) == []


def test_read_sources_primary_first_by_default():
    layout = lay("raidx")
    src = layout.read_sources(0)
    assert src[0] == layout.data_location(0)


def test_raid10_read_alternation_spreads_load():
    layout = lay("raid10")
    pair = layout.n_pairs
    preferred = {layout.read_sources(b)[0].disk for b in range(4 * pair)}
    assert len(preferred) > pair  # both copies get read traffic


def test_node_and_group_helpers():
    layout = lay("raidx", n_disks=12, stripe_width=4)
    assert layout.node_of_disk(5) == 1
    assert layout.disk_group(5) == 1
    assert layout.disk_group(11) == 2


def test_placement_map_renders():
    layout = lay("raidx")
    text = layout.placement_map(8)
    assert "B0" in text and "M0" in text and "D0" in text


def test_full_stripe_detection():
    layout = lay("raid0")
    width = layout.stripe_width
    assert layout.full_stripe(list(range(width)))
    assert not layout.full_stripe(list(range(width - 1)))
    assert layout.full_stripe(list(range(width * 2)))


EXTENT_GEOMETRIES = [(3, 2), (4, 1), (4, 3), (6, 2), (8, 1)]  # (n, k)


def _data_blocks_formula(name, n, k, rows):
    disks = n * k
    if name == "raid0":
        return rows * disks
    if name == "raid5":
        return rows * (disks - 1)
    if name == "raid10":
        return rows * (disks // 2)
    if name == "chained":
        return (rows // 2) * disks
    assert name == "raidx"
    data_rows = max(
        d for d in range(rows // 2 + 1)
        if _image_rows_scanned(n, d) <= rows - d
    )
    return data_rows * disks


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@pytest.mark.parametrize("n,k", EXTENT_GEOMETRIES)
@pytest.mark.parametrize("rows", [9, 64])
def test_extents_match_formulas(name, n, k, rows):
    layout = lay(name, n_disks=n * k, rows=rows, stripe_width=n)
    blocks = _data_blocks_formula(name, n, k, rows)
    assert layout.data_blocks == blocks
    assert layout.data_capacity == blocks * layout.block_size
    layout.check_block(0)
    layout.check_block(blocks - 1)
    for outside in (-1, blocks):
        with pytest.raises(AddressError):
            layout.check_block(outside)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@pytest.mark.parametrize("n,k", EXTENT_GEOMETRIES)
def test_data_disk_cycle_matches_placement(name, n, k):
    layout = lay(name, n_disks=n * k, rows=9, stripe_width=n)
    cycle = layout.data_disk_cycle()
    for b in range(layout.data_blocks):
        assert layout.data_location(b).disk == cycle[b % len(cycle)]


# -- construction-time verification ---------------------------------------
# An array checks its layout's first 256 blocks when it is built; these
# plant one fault at block 200 and build the array.


def _build(arch):
    from repro.cluster.cluster import build_cluster
    from tests.conftest import small_config

    return build_cluster(small_config(n=4), architecture=arch)


def test_a_data_collision_at_block_200_fails_construction(monkeypatch):
    from repro.errors import LayoutError
    from repro.raid.raid0 import Raid0Layout

    uncached = Raid0Layout._data_location_uncached
    # One rotation of 256 blocks (plain striping repeats every row, so
    # a longer rotation describes the same geometry), where block 200
    # lands on block 199's slot.
    monkeypatch.setattr(
        Raid0Layout, "_placement_rotation",
        lambda self: (self.n_disks * 64, 64 * self.block_size),
    )
    monkeypatch.setattr(
        Raid0Layout, "_data_location_uncached",
        lambda self, b: uncached(self, 199 if b == 200 else b),
    )
    with pytest.raises(
        LayoutError,
        match=r"placement collision: blocks \('data', 199\) and 200 ",
    ):
        _build("raid0")


def test_an_image_collision_at_block_200_fails_construction(monkeypatch):
    from repro.errors import LayoutError
    from repro.raid.raidx import RaidxLayout

    images = RaidxLayout.redundancy_locations
    monkeypatch.setattr(
        RaidxLayout, "redundancy_locations",
        lambda self, b: images(self, 199 if b == 200 else b),
    )
    with pytest.raises(
        LayoutError, match=r"\('image', 199\) vs image of 200$"
    ):
        _build("raidx")


def test_an_image_on_its_own_data_disk_fails_construction(monkeypatch):
    from repro.errors import LayoutError
    from repro.raid.layout import Placement
    from repro.raid.raidx import RaidxLayout

    images = RaidxLayout.redundancy_locations

    def planted(self, b):
        if b != 200:
            return images(self, b)
        (image,) = images(self, b)
        return [Placement(self.data_location(b).disk, image.offset)]

    monkeypatch.setattr(RaidxLayout, "redundancy_locations", planted)
    with pytest.raises(
        LayoutError,
        match=r"block 200: image on same disk as data .* orthogonality",
    ):
        _build("raidx")
