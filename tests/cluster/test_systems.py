"""Per-architecture I/O protocol behaviour: op counts, degraded modes."""

import pytest

from repro.cluster.cluster import build_cluster
from repro.errors import (
    ConfigurationError,
    DataLossError,
    DegradedModeError,
)
from repro.raid.mirror_policy import MirrorPolicy
from repro.sim.core import SimulationError
from repro.units import KiB
from tests.conftest import run_proc, small_config

BS = 32 * KiB


def cluster_for(arch, n=4, **kw):
    return build_cluster(small_config(n=n), architecture=arch, **kw)


def total_disk_writes(cluster):
    return sum(d.stats.writes for d in cluster.all_disks())


def total_disk_reads(cluster):
    return sum(d.stats.reads for d in cluster.all_disks())


def do_io(cluster, op, offset, nbytes, client=0):
    def p():
        yield cluster.storage.submit(client, op, offset, nbytes)
        yield from cluster.storage.drain()

    run_proc(cluster, p())


# -- write op counts -------------------------------------------------------

def test_raid0_write_one_op_per_block():
    c = cluster_for("raid0")
    do_io(c, "write", 0, 4 * BS)
    assert total_disk_writes(c) == 4


def test_raid10_write_two_ops_per_block():
    c = cluster_for("raid10")
    do_io(c, "write", 0, 2 * BS)
    assert total_disk_writes(c) == 4


def test_chained_write_two_ops_per_block():
    c = cluster_for("chained")
    do_io(c, "write", 0, 2 * BS)
    assert total_disk_writes(c) == 4


def test_raidx_write_data_plus_clustered_image():
    c = cluster_for("raidx")
    # A full mirror group (n-1 = 3 blocks): 3 data writes + ONE long
    # image write after drain.
    do_io(c, "write", 0, 3 * BS)
    assert total_disk_writes(c) == 4
    img_writes = [
        d.stats.writes for d in c.all_disks() if d.stats.bytes_written > BS * 1.5
    ]
    assert img_writes == [1]  # one disk got one 3-block extent


def test_raid5_small_write_rmw_ops():
    c = cluster_for("raid5")
    do_io(c, "write", 0, BS)
    # Read old data + old parity; write data + parity.
    assert total_disk_reads(c) == 2
    assert total_disk_writes(c) == 2


def test_raid5_full_stripe_optimization_skips_reads():
    c = cluster_for("raid5", full_stripe_optimization=True)
    width = c.storage.layout.n_disks - 1
    do_io(c, "write", 0, width * BS)
    assert total_disk_reads(c) == 0
    assert total_disk_writes(c) == width + 1  # data + parity


def test_raid5_rmw_without_optimization_reads_old_data():
    c = cluster_for("raid5")
    width = c.storage.layout.n_disks - 1
    do_io(c, "write", 0, width * BS)
    assert total_disk_reads(c) > 0


# -- reads ------------------------------------------------------------------

def test_reads_touch_one_disk_per_block(any_array_cluster):
    c = any_array_cluster
    do_io(c, "write", 0, 2 * BS)
    before = total_disk_reads(c)
    do_io(c, "read", 0, 2 * BS)
    delta = total_disk_reads(c) - before
    # RAID-5 pre-writes may have read; the read itself adds exactly 2.
    assert delta == 2


def test_bytes_accounting(any_cluster):
    c = any_cluster
    do_io(c, "write", 0, 3 * BS)
    do_io(c, "read", 0, 2 * BS)
    assert c.storage.bytes_written == 3 * BS
    assert c.storage.bytes_read == 2 * BS


# -- degraded operation ---------------------------------------------------

def test_raid10_degraded_read_uses_mirror():
    c = cluster_for("raid10")
    do_io(c, "write", 0, BS)
    loc = c.storage.layout.data_location(0)
    c.storage.fail_disk(loc.disk)
    do_io(c, "read", 0, BS)  # served by the pair partner
    mirror = c.storage.layout.redundancy_locations(0)[0]
    assert c.disk(mirror.disk).stats.reads >= 1


def test_raidx_degraded_read_uses_image():
    c = cluster_for("raidx")
    do_io(c, "write", 0, 3 * BS)
    loc = c.storage.layout.data_location(0)
    c.storage.fail_disk(loc.disk)
    do_io(c, "read", 0, BS)
    image = c.storage.layout.redundancy_locations(0)[0]
    assert c.disk(image.disk).stats.reads >= 1


def test_raid5_degraded_read_reconstructs():
    c = cluster_for("raid5")
    do_io(c, "write", 0, BS)
    loc = c.storage.layout.data_location(0)
    before = total_disk_reads(c)
    c.storage.fail_disk(loc.disk)
    do_io(c, "read", 0, BS)
    # Reconstruction reads the n-1 surviving blocks of the stripe.
    assert total_disk_reads(c) - before == c.n_disks - 1


def test_raid0_fail_disk_raises_degraded_mode():
    """Non-redundant layouts report the loss at fail time, typed."""
    c = cluster_for("raid0")
    do_io(c, "write", 0, BS)
    with pytest.raises(DegradedModeError) as exc:
        c.storage.fail_disk(0)
    assert exc.value.arch == "raid0"
    assert exc.value.disk == 0
    # The disk is still marked failed despite the raise.
    assert 0 in c.storage.failed_disks
    # Reads of the lost range keep failing with the data-loss root class.
    with pytest.raises(DataLossError):
        do_io(c, "read", 0, BS)


def test_nfs_fail_disk_raises_degraded_mode():
    """NFS routes through the same degraded-path report as RAID-0."""
    c = cluster_for("nfs")
    disk = c.storage._server_disks[0]
    with pytest.raises(DegradedModeError) as exc:
        c.storage.fail_disk(disk)
    assert exc.value.arch == "nfs"
    assert disk in c.storage.failed_disks


def test_redundant_systems_fail_disk_does_not_raise():
    for arch in ("raid5", "raid10", "chained", "raidx"):
        c = cluster_for(arch)
        c.storage.fail_disk(1)  # absorbed: redundancy covers it
        assert 1 in c.storage.failed_disks


def test_raid5_two_failures_is_data_loss():
    c = cluster_for("raid5")
    do_io(c, "write", 0, BS)
    c.storage.fail_disk(0)
    c.storage.fail_disk(1)
    with pytest.raises(DataLossError):
        do_io(c, "read", 0, 3 * BS)


def test_mirrored_write_survives_single_failure():
    c = cluster_for("raid10")
    c.storage.fail_disk(0)
    do_io(c, "write", 0, BS)  # lands on the mirror only
    assert total_disk_writes(c) == 1


def test_repair_restores_full_writes():
    c = cluster_for("raid10")
    c.storage.fail_disk(0)
    c.storage.repair_disk(0)
    do_io(c, "write", 0, BS)
    assert total_disk_writes(c) == 2


# -- RAID-x specifics --------------------------------------------------------

def test_raidx_foreground_policy_counts_in_latency():
    bg = cluster_for("raidx", mirror_policy=MirrorPolicy.BACKGROUND)
    fg = cluster_for("raidx", mirror_policy="foreground")

    def timed_write(c):
        t = {}

        def p():
            t0 = c.env.now
            yield c.storage.submit(0, "write", 0, 3 * BS)
            t["w"] = c.env.now - t0
            yield from c.storage.drain()

        run_proc(c, p())
        return t["w"]

    assert timed_write(bg) < timed_write(fg)


def test_raidx_background_bytes_tracked():
    c = cluster_for("raidx")
    do_io(c, "write", 0, 3 * BS)
    assert c.storage.background_bytes == 3 * BS


def test_raidx_dirty_groups_cleared_after_drain():
    c = cluster_for("raidx")
    do_io(c, "write", 0, 3 * BS)
    assert not c.storage._dirty_groups
    assert c.storage.pending_background_flushes == 0


def test_raidx_absorbs_rewrites_of_same_extent():
    c = cluster_for("raidx")

    def p():
        evs = [
            c.storage.submit(0, "write", 0, BS) for _ in range(6)
        ]
        yield c.env.all_of(evs)
        yield from c.storage.drain()

    run_proc(c, p())
    assert c.storage.absorbed_rewrites > 0


def test_raidx_vulnerability_windows_tracked():
    c = cluster_for("raidx")
    do_io(c, "write", 0, 3 * BS)
    stats = c.storage.vulnerability_stats()
    assert stats["count"] >= 1
    assert 0 < stats["mean"] <= stats["max"]
    assert stats["p95"] <= stats["max"]


def test_raidx_foreground_policy_has_no_vulnerability_window():
    c = cluster_for("raidx", mirror_policy="foreground")
    do_io(c, "write", 0, 3 * BS)
    # Foreground flushes are measured too, but there is no *deferred*
    # exposure: the write did not complete before the image landed —
    # the windows list still records the flush durations.
    assert c.storage.vulnerability_stats()["count"] >= 1


def test_raidx_vulnerability_empty_before_writes():
    c = cluster_for("raidx")
    stats = c.storage.vulnerability_stats()
    assert stats == {"count": 0, "mean": 0.0, "max": 0.0, "p95": 0.0}


def test_raidx_mirror_policy_parse_rejects_garbage():
    with pytest.raises(ValueError):
        MirrorPolicy.parse("sometimes")


def test_raidx_read_local_mirror_option():
    # 4 nodes; block 1's data is on disk 1 (node 1); its image disk may
    # be local to another node, which can then read without the network.
    c = cluster_for("raidx", read_local_mirror=True)
    do_io(c, "write", 0, 3 * BS)
    lay = c.storage.layout
    img_disk = lay.redundancy_locations(0)[0].disk
    reader = lay.node_of_disk(img_disk)
    before = c.transport.stats.remote_block_ops
    do_io(c, "read", 0, BS, client=reader)
    assert c.transport.stats.remote_block_ops == before


def test_read_policy_validation():
    with pytest.raises(ConfigurationError):
        cluster_for("raid10", read_policy="roulette")


def test_shortest_queue_diverts_from_deep_queue():
    c = cluster_for("raid10", read_policy="shortest_queue")
    do_io(c, "write", 0, BS)
    lay = c.storage.layout
    primary = lay.data_location(0)
    mirror = lay.redundancy_locations(0)[0]
    # Pile synthetic load onto the primary's disk queue.
    for _ in range(8):
        c.disk(primary.disk).read(0, BS)
    before = c.disk(mirror.disk).stats.reads
    do_io(c, "read", 0, BS)
    assert c.disk(mirror.disk).stats.reads == before + 1


def test_shortest_queue_respects_hysteresis():
    c = cluster_for("raid10", read_policy="shortest_queue")
    do_io(c, "write", 0, BS)
    lay = c.storage.layout
    primary = lay.data_location(0)
    # One queued request is within the margin: stay on the primary.
    c.disk(primary.disk).read(0, BS)
    before = c.disk(primary.disk).stats.reads
    do_io(c, "read", 0, BS)
    assert c.disk(primary.disk).stats.reads == before + 2  # queued + ours


def test_raidx_balanced_read_avoids_dirty_image():
    c = cluster_for("raidx", read_policy="shortest_queue")

    def p():
        # Write without draining: the image is still dirty.
        yield c.storage.submit(0, "write", 0, 3 * BS)
        img = c.storage.layout.redundancy_locations(0)[0]
        primary = c.storage.layout.data_location(0)
        # Deep queue on the primary would normally divert to the image.
        for _ in range(8):
            c.disk(primary.disk).read(0, BS)
        src = c.storage._read_source(0, c.storage.planner.pieces_for(0, BS)[0])
        # The image may be mid-flush; only a *clean* image is eligible.
        if c.storage._dirty_groups:
            assert src == primary
        else:
            assert src in (primary, img)

    run_proc(c, p())


# -- NFS --------------------------------------------------------------------

def test_nfs_ops_hit_server_disks_only():
    c = cluster_for("nfs")
    do_io(c, "write", 0, 2 * BS, client=1)
    server_disks = set(c.nodes[0].disk_ids)
    for d in c.all_disks():
        if d.disk_id in server_disks:
            assert d.stats.writes > 0
        else:
            assert d.stats.writes == 0


def test_nfs_chunking_produces_rpcs():
    c = cluster_for("nfs")
    do_io(c, "read", 0, 32 * KiB, client=1)
    kinds = c.transport.stats.by_kind
    # 32 KiB at 8 KiB rsize = 4 RPC round trips.
    assert kinds["rpc_req"][0] == 4
    assert kinds["rpc_reply"][0] == 4


def test_nfs_server_cache_hits_skip_disk():
    c = cluster_for("nfs")
    do_io(c, "write", 0, BS, client=1)
    reads_before = total_disk_reads(c)
    do_io(c, "read", 0, BS, client=1)  # warm: written through the cache
    assert total_disk_reads(c) == reads_before


def test_nfs_cold_cache_reads_disk():
    c = cluster_for("nfs", server_cache_mb=0)
    do_io(c, "write", 0, BS, client=1)
    before = total_disk_reads(c)
    do_io(c, "read", 0, BS, client=1)
    assert total_disk_reads(c) > before


def test_nfs_out_of_range_rejected():
    c = cluster_for("nfs")
    with pytest.raises(ConfigurationError):
        do_io(c, "read", c.storage.capacity, 1)


def test_unknown_architecture_rejected():
    with pytest.raises(ConfigurationError):
        build_cluster(small_config(), architecture="raid7")
