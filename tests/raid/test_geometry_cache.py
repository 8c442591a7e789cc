"""Placement geometry must agree exactly with an independent reference.

Data placement is answered from a per-rotation table built lazily by
``Layout._build_data_table``; those tests compare it with the
``_data_location_uncached`` formulas on every logical block.

RAID-x mirror and image placement is closed-form arithmetic
(``RaidxLayout.mirror_slot``).  Its oracle here is a brute-force OSM
built the way the paper describes the layout: enumerate each disk
group's data blocks in address order, chunk them into runs of ``n-1``
(the mirror groups), and give each run the next free clustered extent on
its image disk.  Every block of several n×k arrays is checked, including
the truncated tail group of each disk group and an array smaller than
one placement rotation.
"""

import tracemalloc

import pytest

from repro.raid import make_layout
from repro.raid.layout import Placement
from repro.raid.plan import Piece, ReadContext
from repro.raid.planners import RaidxPlanner
from repro.raid.raid5 import Raid5Layout
from repro.raid.raid10 import Raid10Layout
from repro.raid.raidx import RaidxLayout
from repro.units import MB, KiB


def _raidx(n, k, rows=None):
    # Odd-ish capacities make the last rotation partial (rows % (n-1)
    # != 0 for most n), which exercises the truncated tail groups.
    rows = rows if rows is not None else 2 * n + 3
    return RaidxLayout(
        n_disks=n * k,
        block_size=4 * KiB,
        disk_capacity=2 * rows * 4 * KiB,
        stripe_width=n,
    )


def _reference_osm(layout):
    """Brute-force OSM: block -> (group_id, disk_group, image_disk,
    extent_offset, members)."""
    n, D, bs = layout.n, layout.n_disks, layout.block_size
    out = {}
    group_id = 0
    for c in range(layout.k):
        local = [b for b in range(layout.data_blocks) if b % D // n == c]
        next_row = [0] * n  # next free image row per disk of the group
        for g, start in enumerate(range(0, len(local), n - 1)):
            members = tuple(local[start:start + n - 1])
            image = (g + 1) * (n - 1) % n
            offset = layout.mirror_base + next_row[image] * bs
            next_row[image] += n - 1
            for b in members:
                out[b] = (group_id, c, c * n + image, offset, members)
            group_id += 1
    return out


RAIDX_CONFIGS = [(3, 1), (4, 1), (4, 3), (5, 2), (6, 2), (7, 1)]


def test_raidx_configs_cover_truncated_tail_groups():
    truncated = 0
    for n, k in RAIDX_CONFIGS:
        ref = _reference_osm(_raidx(n, k))
        truncated += any(len(m[4]) < n - 1 for m in ref.values())
    assert truncated >= 3


@pytest.mark.parametrize("n,k", RAIDX_CONFIGS)
def test_raidx_data_location_cached_matches_formula(n, k):
    layout = _raidx(n, k)
    for b in range(layout.data_blocks):
        assert layout.data_location(b) == layout._data_location_uncached(b)


@pytest.mark.parametrize("n,k", RAIDX_CONFIGS)
def test_raidx_mirror_group_cached_matches_formula(n, k):
    layout = _raidx(n, k)
    assert layout.data_blocks > n * k * (n - 1), "want >1 rotation"
    ref = _reference_osm(layout)
    for b in range(layout.data_blocks):
        group_id, c, disk, offset, members = ref[b]
        assert layout.mirror_slot(b) == (
            group_id, disk, offset, members.index(b)
        )
        assert disk // n == c


@pytest.mark.parametrize("n,k", RAIDX_CONFIGS)
def test_raidx_redundancy_cached_matches_formula(n, k):
    layout = _raidx(n, k)
    ref = _reference_osm(layout)
    for b in range(layout.data_blocks):
        _gid, _c, disk, offset, members = ref[b]
        pos = members.index(b)
        assert layout.redundancy_locations(b) == [
            Placement(disk, offset + pos * layout.block_size)
        ]


@pytest.mark.parametrize("n,k", RAIDX_CONFIGS)
def test_raidx_orthogonality_still_holds(n, k):
    layout = _raidx(n, k)
    layout.verify_invariants(blocks=layout.data_blocks)
    for b in range(layout.data_blocks):
        data = layout.data_location(b)
        for img in layout.redundancy_locations(b):
            assert img.disk != data.disk


def test_raidx_tiny_array_smaller_than_one_rotation():
    layout = _raidx(5, 1, rows=2)
    assert layout.data_blocks < layout.n_disks * (layout.n - 1)
    ref = _reference_osm(layout)
    for b in range(layout.data_blocks):
        group_id, c, disk, offset, members = ref[b]
        pos = members.index(b)
        assert layout.mirror_slot(b) == (group_id, disk, offset, pos)
        assert disk // layout.n == c
        assert layout.redundancy_locations(b) == [
            Placement(disk, offset + pos * layout.block_size)
        ]


def test_raidx_256_node_lookups_allocate_no_tables():
    # The trojans disk (10 GB, 32 KiB blocks) on 256 nodes.  A per-rotation
    # mirror table here would hold D(n-1) groups of n-1 blocks each:
    # 16.6 M tuple slots, hundreds of MB.
    bs = 32 * KiB
    tracemalloc.start()
    try:
        layout = RaidxLayout(
            n_disks=256, block_size=bs, disk_capacity=10_000 * MB
        )
        planner = RaidxPlanner(layout)
        ctx = ReadContext(client=0)
        top = layout.data_blocks - 1
        for i in range(10_000):
            b = i * top // 9_999
            assert layout.mirror_slot(b)[3] < layout.n - 1
            image = layout.redundancy_locations(b)[0]
            piece = Piece(b, 0, bs, layout.data_location(b))
            candidates, _ = planner.read_candidates(piece, frozenset(), ctx)
            assert candidates[1] == image
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak allocation {peak:,} B"


@pytest.mark.parametrize("disks", [3, 4, 5, 8])
def test_raid5_data_location_cached_matches_formula(disks):
    layout = Raid5Layout(
        n_disks=disks, block_size=4 * KiB, disk_capacity=64 * 4 * KiB
    )
    # Several full rotations plus a partial one.
    assert layout.data_blocks > 2 * disks * (disks - 1)
    for b in range(layout.data_blocks):
        assert layout.data_location(b) == layout._data_location_uncached(b)


@pytest.mark.parametrize("disks", [4, 6, 12])
def test_raid10_cached_matches_formula(disks):
    layout = Raid10Layout(
        n_disks=disks, block_size=4 * KiB, disk_capacity=33 * 4 * KiB
    )
    pairs, bs = disks // 2, layout.block_size
    for b in range(layout.data_blocks):
        assert layout.data_location(b) == layout._data_location_uncached(b)
        assert layout.redundancy_locations(b) == [
            Placement(2 * (b % pairs) + 1, (b // pairs) * bs)
        ]


@pytest.mark.parametrize("name", ["raid0", "chained", "raidx"])
@pytest.mark.parametrize("disks", [3, 6, 12])
def test_striped_layouts_cached_match_striping(name, disks):
    # RAID-0, chained declustering and RAID-x share the base class's
    # default rotation: block b on disk b mod D, row b // D.
    layout = make_layout(
        name, n_disks=disks, block_size=4 * KiB,
        disk_capacity=17 * 4 * KiB,
    )
    bs = layout.block_size
    for b in range(layout.data_blocks):
        assert layout.data_location(b) == Placement(
            b % disks, (b // disks) * bs
        )


def test_table_is_built_lazily_and_reused():
    layout = _raidx(4, 1)
    assert layout._data_table is None
    layout.data_location(0)
    table = layout._data_table
    assert table is not None
    layout.data_location(layout.data_blocks - 1)
    assert layout._data_table is table  # built once
