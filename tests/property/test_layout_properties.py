"""Hypothesis properties of the RAID placement geometries."""

from hypothesis import assume, given, settings, strategies as st

from repro.raid import LAYOUTS, make_layout

# Geometry strategy: modest sizes keep enumeration cheap.
n_disks_st = st.integers(min_value=4, max_value=24).filter(
    lambda n: n % 2 == 0
)
rows_st = st.integers(min_value=4, max_value=40)


def build(name, n_disks, rows, stripe_width=None):
    return make_layout(
        name,
        n_disks=n_disks,
        block_size=4096,
        disk_capacity=rows * 4096,
        stripe_width=stripe_width,
    )


@st.composite
def raidx_geometry(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    k = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=4, max_value=32))
    return build("raidx", n * k, rows, stripe_width=n)


@given(name=st.sampled_from(sorted(LAYOUTS)), n=n_disks_st, rows=rows_st)
@settings(max_examples=40, deadline=None)
def test_no_placement_collisions(name, n, rows):
    lay = build(name, n, rows)
    lay.verify_invariants(min(lay.data_blocks, 512))


@given(lay=raidx_geometry())
@settings(max_examples=40, deadline=None)
def test_raidx_orthogonality(lay):
    for b in range(min(lay.data_blocks, 400)):
        data = lay.data_location(b)
        image = lay.redundancy_locations(b)[0]
        assert image.disk != data.disk
        assert lay.disk_group(image.disk) == lay.disk_group(data.disk)
        assert image.offset >= lay.mirror_base


@given(lay=raidx_geometry())
@settings(max_examples=30, deadline=None)
def test_raidx_mirror_groups_partition_blocks(lay):
    seen = {}
    for b in range(min(lay.data_blocks, 300)):
        group_id, disk, offset, pos = lay.mirror_slot(b)
        assert 0 <= pos < lay.n - 1
        extent, taken = seen.setdefault(group_id, ((disk, offset), set()))
        assert extent == (disk, offset)
        assert pos not in taken
        taken.add(pos)


@given(lay=raidx_geometry())
@settings(max_examples=30, deadline=None)
def test_raidx_stripe_images_at_most_two_disks(lay):
    stripes = min(lay.data_blocks // lay.n, 30)
    for s in range(stripes):
        assert 1 <= len(lay.stripe_image_disks(s)) <= 2


@given(
    lay=raidx_geometry(),
    failures=st.sets(st.integers(min_value=0, max_value=31), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_raidx_tolerates_iff_one_per_group(lay, failures):
    failures = {f for f in failures if f < lay.n_disks}
    per_group = {}
    for f in failures:
        per_group[f // lay.n] = per_group.get(f // lay.n, 0) + 1
    expected = all(v <= 1 for v in per_group.values())
    assert lay.tolerates(failures) == expected


@given(name=st.sampled_from(sorted(LAYOUTS)), n=n_disks_st, rows=rows_st)
@settings(max_examples=40, deadline=None)
def test_data_location_bijective(name, n, rows):
    lay = build(name, n, rows)
    seen = set()
    for b in range(min(lay.data_blocks, 400)):
        p = lay.data_location(b)
        key = (p.disk, p.offset)
        assert key not in seen
        seen.add(key)


@given(name=st.sampled_from(sorted(LAYOUTS)), n=n_disks_st, rows=rows_st)
@settings(max_examples=40, deadline=None)
def test_stripe_of_consistent_with_stripe_blocks(name, n, rows):
    lay = build(name, n, rows)
    for b in range(min(lay.data_blocks, 200)):
        s = lay.stripe_of(b)
        assert b in lay.stripe_blocks(s)


@given(
    name=st.sampled_from(["raid10", "chained", "raidx"]),
    n=n_disks_st,
    rows=rows_st,
)
@settings(max_examples=40, deadline=None)
def test_single_failure_always_survivable_mirrored(name, n, rows):
    lay = build(name, n, rows)
    for d in range(lay.n_disks):
        assert lay.tolerates({d})


@given(
    name=st.sampled_from(sorted(LAYOUTS)),
    n=n_disks_st,
    rows=rows_st,
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_surviving_sources_exclude_failed(name, n, rows, data):
    lay = build(name, n, rows)
    # RAID-x on very small disks can have zero addressable blocks (the
    # image-row skew eats the whole mirror half).
    assume(lay.data_blocks > 0)
    failed = data.draw(
        st.sets(st.integers(0, lay.n_disks - 1), max_size=3)
    )
    b = data.draw(st.integers(0, min(lay.data_blocks, 200) - 1))
    for p in lay.surviving_read_sources(b, failed):
        assert p.disk not in failed
