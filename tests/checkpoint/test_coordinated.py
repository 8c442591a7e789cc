"""Coordinated checkpointing schedules."""

import pytest

from repro.checkpoint import CheckpointConfig, CheckpointRun, SCHEMES
from repro.cluster.cluster import build_cluster
from repro.errors import ConfigurationError
from repro.units import KiB, MB
from tests.conftest import small_config

STATE = 512 * KiB


def run_scheme(scheme, groups=None, arch="raidx", processes=4):
    cluster = build_cluster(small_config(n=4), architecture=arch)
    cfg = CheckpointConfig(
        processes=processes,
        state_bytes=STATE,
        scheme=scheme,
        stagger_groups=groups,
    )
    run = CheckpointRun(cluster, cfg)
    return run, run.run()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_all_schemes_complete(scheme):
    _, r = run_scheme(scheme, groups=2)
    assert r.total_time > 0
    assert r.write_time > 0
    assert r.sync_overhead >= 0
    assert len(r.per_process_write) == 4
    assert r.aggregate_bandwidth_mb_s > 0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        CheckpointConfig(processes=0).validate()
    with pytest.raises(ConfigurationError):
        CheckpointConfig(state_bytes=0).validate()
    with pytest.raises(ConfigurationError):
        CheckpointConfig(scheme="zigzag").validate()


def test_staggered_processes_write_in_turn():
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    cfg = CheckpointConfig(
        processes=4, state_bytes=STATE, scheme="staggered"
    )
    run = CheckpointRun(cluster, cfg)
    run.run()
    starts = run._write_start
    for p in range(1, 4):
        # Process p starts no earlier than p-1 finished.
        assert starts[p] >= run._write_end[p - 1] - 1e-9


def test_striped_staggered_groups_in_turn():
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    cfg = CheckpointConfig(
        processes=4,
        state_bytes=STATE,
        scheme="striped_staggered",
        stagger_groups=2,
    )
    run = CheckpointRun(cluster, cfg)
    run.run()
    g0_end = max(run._write_end[p] for p in (0, 1))
    g1_start = min(run._write_start[p] for p in (2, 3))
    assert g1_start >= g0_end - 1e-9


def test_parallel_processes_overlap():
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    cfg = CheckpointConfig(
        processes=4, state_bytes=STATE, scheme="parallel"
    )
    run = CheckpointRun(cluster, cfg)
    run.run()
    starts = set(round(t, 9) for t in run._write_start.values())
    assert len(starts) == 1  # everyone starts at the barrier release


def test_parallel_epoch_not_slower_than_staggered():
    _, par = run_scheme("parallel")
    _, st = run_scheme("staggered")
    assert par.total_time <= st.total_time


def test_staggered_per_process_write_shorter():
    _, par = run_scheme("parallel")
    _, st = run_scheme("staggered")
    assert max(st.per_process_write.values()) <= max(
        par.per_process_write.values()
    ) * 1.05


def test_sync_overhead_counted():
    _, r = run_scheme("parallel")
    assert r.sync_overhead > 0  # marker round trips cost time


def test_region_blocks_distinct_per_process():
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    cfg = CheckpointConfig(processes=4, state_bytes=STATE)
    run = CheckpointRun(cluster, cfg)
    seen = set()
    for p in range(4):
        blocks = set(run.region_blocks(p))
        assert not blocks & seen
        seen |= blocks


def test_local_image_placement_used_on_raidx():
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    cfg = CheckpointConfig(
        processes=4, state_bytes=STATE, local_images=True
    )
    run = CheckpointRun(cluster, cfg)
    lay = cluster.storage.layout
    for p in range(4):
        node = run.node_of_process(p)
        for b in run.region_blocks(p):
            assert lay.mirror_slot(b)[1] % 4 == node


def test_generic_placement_on_other_architectures():
    cluster = build_cluster(small_config(n=4), architecture="raid10")
    cfg = CheckpointConfig(processes=2, state_bytes=STATE)
    run = CheckpointRun(cluster, cfg)
    blocks = run.region_blocks(1)
    assert len(blocks) == -(-STATE // cluster.storage.block_size)


def test_striped_staggering_targets_successive_disk_groups():
    """Fig. 7 / Fig. 3: on a 4×3 array with 3 stagger steps, process
    group g checkpoints into disk group g — 'successive stripes are
    accessed ... from different stripes on successive 4-disk groups'."""
    cluster = build_cluster(small_config(n=4, k=3), architecture="raidx")
    cfg = CheckpointConfig(
        processes=12,
        state_bytes=128 * KiB,
        scheme="striped_staggered",
        stagger_groups=3,
        local_images=True,
    )
    run = CheckpointRun(cluster, cfg)
    lay = cluster.storage.layout
    for p in range(12):
        expected_group = p // 4
        for b in run.region_blocks(p):
            data_disk = lay.data_location(b).disk
            assert lay.disk_group(data_disk) == expected_group
    r = run.run()
    assert r.total_time > 0


def test_checkpoint_on_all_architectures():
    for arch in ("raid0", "raid5", "raid10", "chained", "raidx"):
        cluster = build_cluster(small_config(n=4), architecture=arch)
        cfg = CheckpointConfig(
            processes=2, state_bytes=128 * KiB, scheme="parallel"
        )
        r = CheckpointRun(cluster, cfg).run()
        assert r.total_time > 0
