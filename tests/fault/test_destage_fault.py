"""Destage-vs-fault interleaving: dirty data is never silently dropped.

The contract (DESIGN §6.17): when a disk dies mid-destage, a redundant
array's tolerant-write path marks-and-continues — the destage commits
against the survivors and no dirty block is lost — while an
unrecoverable failure reports each in-flight block lost **exactly
once**.  Either way, after ``drain`` every block that was ever dirtied
is accounted for: destaged or lost, never both, never neither.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.fault import FailureEvent, FaultInjector
from repro.units import KiB
from tests.conftest import run_proc, small_config

BS = 32 * KiB

CFG = CacheConfig(capacity_blocks=128, destage_batch=8, track_blocks=True)


def cached_cluster(arch):
    return build_cluster(small_config(n=4), architecture=arch, cache=CFG)


def write_then_drain(cluster, blocks, failures=()):
    """Dirty ``blocks`` (full-block writes), then drain under the
    failure schedule; returns the client cache's stats."""
    if failures:
        FaultInjector(cluster, list(failures)).start()

    def p():
        for b in blocks:
            yield cluster.storage.submit(0, "write", b * BS, BS)
        yield from cluster.storage.drain()

    run_proc(cluster, p())
    return cluster.storage.engine.cache.caches[0].stats


def assert_exactly_once(stats, blocks):
    written = set(blocks)
    assert stats.destaged_blocks | stats.lost_blocks == written
    assert not (stats.destaged_blocks & stats.lost_blocks)
    assert stats.destaged == len(stats.destaged_blocks)
    assert stats.lost == len(stats.lost_blocks)


def test_tolerant_array_survives_mid_destage_failure():
    """RAID-x: one disk dies while the sweep is in flight; the
    tolerant-write path marks-and-continues and nothing is lost."""
    c = cached_cluster("raidx")
    blocks = list(range(12))
    stats = write_then_drain(
        c, blocks, failures=[FailureEvent(1e-4, disk=2)]
    )
    assert_exactly_once(stats, blocks)
    assert stats.lost == 0
    assert stats.destaged == len(blocks)
    assert 2 in c.storage.failed_disks


def test_unrecoverable_failure_reports_loss_once():
    """RAID-0 has no redundancy: blocks in a destage run that hits the
    dead disk are reported lost — once — and the rest still destage."""
    c = cached_cluster("raid0")
    blocks = list(range(12))
    stats = write_then_drain(
        c, blocks, failures=[FailureEvent(1e-4, disk=1)]
    )
    assert_exactly_once(stats, blocks)
    assert stats.lost > 0
    assert stats.destaged > 0


def test_drain_terminates_after_total_loss():
    """Even when every run fails, drain converges: lost blocks leave
    the dirty population instead of being retried forever."""
    c = cached_cluster("raid0")
    blocks = list(range(8))
    stats = write_then_drain(
        c, blocks,
        failures=[FailureEvent(1e-5, disk=d) for d in range(4)],
    )
    assert_exactly_once(stats, blocks)
    assert stats.destaged == 0
    assert stats.lost == len(blocks)


@settings(max_examples=12, deadline=None)
@given(
    blocks=st.sets(st.integers(min_value=0, max_value=40), min_size=1,
                   max_size=16),
    fail_disk=st.integers(min_value=0, max_value=3),
    fail_at=st.floats(min_value=1e-6, max_value=5e-3),
    arch=st.sampled_from(["raidx", "raid0", "raid5"]),
)
def test_every_dirty_block_accounted_exactly_once(
    blocks, fail_disk, fail_at, arch
):
    """The satellite property: whatever the architecture, write set and
    failure timing, every ever-dirtied block is destaged or reported
    lost, exactly once."""
    c = cached_cluster(arch)
    stats = write_then_drain(
        c, sorted(blocks),
        failures=[FailureEvent(fail_at, disk=fail_disk)],
    )
    assert_exactly_once(stats, sorted(blocks))
