"""The engine's buffer-cache stage: hits, write-back, destage, legality."""

import pytest

from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.obs import runtime as obs_runtime
from repro.obs.load import cache_hit_ratios, collect_load
from repro.obs.trace import CACHE_DESTAGE, CACHE_LOOKUP
from repro.units import KiB
from tests.conftest import run_proc, small_config

BS = 32 * KiB

CFG = CacheConfig(capacity_blocks=64, destage_batch=8)


@pytest.fixture(autouse=True)
def _reset_tracer():
    yield
    obs_runtime.reset()


def cached_cluster(arch="raidx", cache=CFG, **kw):
    return build_cluster(
        small_config(n=4), architecture=arch, cache=cache, **kw
    )


def do_io(cluster, ops, drain=True):
    def p():
        for client, op, offset, nbytes in ops:
            yield cluster.storage.submit(client, op, offset, nbytes)
        if drain:
            yield from cluster.storage.drain()

    run_proc(cluster, p())


def total_reads(cluster):
    return sum(d.stats.reads for d in cluster.all_disks())


def total_writes(cluster):
    return sum(d.stats.writes for d in cluster.all_disks())


def stage_of(cluster):
    return cluster.storage.engine.cache


# -- read path -------------------------------------------------------------

def test_repeated_reads_hit_after_first_fill():
    c = cached_cluster()
    do_io(c, [(0, "read", 0, 2 * BS)] * 5)
    stage = stage_of(c)
    st = stage.caches[0].stats
    assert st.misses == 2  # only the first pass touches disk
    assert st.hits == 8
    assert stage.hit_rates()[0] == pytest.approx(0.8)


def test_hits_issue_no_disk_reads():
    c = cached_cluster()
    do_io(c, [(0, "read", 0, 2 * BS)])
    first = total_reads(c)
    do_io(c, [(0, "read", 0, 2 * BS)] * 10)
    assert total_reads(c) == first


def test_caches_are_per_node():
    c = cached_cluster()
    do_io(c, [(0, "read", 0, BS)])
    do_io(c, [(1, "read", 0, BS)])  # different node: its own miss
    stage = stage_of(c)
    assert stage.caches[0].stats.misses == 1
    assert stage.caches[1].stats.misses == 1


# -- write-back ------------------------------------------------------------

def test_writeback_defers_disk_writes_until_destage():
    c = cached_cluster()
    do_io(c, [(0, "write", 0, 2 * BS)], drain=False)
    assert total_writes(c) == 0  # dirty in cache only
    assert stage_of(c).dirty_or_destaging
    do_io(c, [], drain=True)
    assert total_writes(c) > 0
    assert not stage_of(c).dirty_or_destaging
    st = stage_of(c).caches[0].stats
    assert st.destaged == 2 and st.lost == 0


def test_rewrites_absorbed_before_destage():
    c = cached_cluster()
    do_io(c, [(0, "write", 0, BS)] * 6, drain=False)
    st = stage_of(c).caches[0].stats
    assert st.write_absorbed == 5  # first write dirties, rest absorb
    do_io(c, [], drain=True)
    assert st.destaged == 1  # one block, written back once


def test_writethrough_commits_immediately():
    c = cached_cluster(cache=CacheConfig(capacity_blocks=64,
                                         mode="writethrough"))
    do_io(c, [(0, "write", 0, 2 * BS)], drain=False)
    assert total_writes(c) > 0
    assert not stage_of(c).dirty_or_destaging
    # The clean cached copy serves the read-back without disk I/O.
    reads_before = total_reads(c)
    do_io(c, [(0, "read", 0, 2 * BS)])
    assert total_reads(c) == reads_before


def test_threshold_destage_triggers_under_pressure():
    cfg = CacheConfig(capacity_blocks=8, dirty_fraction=0.25,
                      destage_batch=4)
    c = cached_cluster(cache=cfg)
    do_io(c, [(0, "write", i * BS, BS) for i in range(6)], drain=False)
    c.env.run()  # let the threshold-triggered background sweep finish
    # 6 dirtied blocks crossed the 2-block threshold mid-stream: the
    # policy destaged without anyone calling drain.
    assert stage_of(c).caches[0].stats.destaged > 0


# -- coherence -------------------------------------------------------------

def test_peer_write_invalidates_cached_reader():
    c = cached_cluster()
    do_io(c, [(1, "read", 0, BS)])  # node 1 caches block 0
    stage = stage_of(c)
    assert 0 in stage.caches[1]
    invalidations = c.transport.stats.by_kind.get("invalidate", (0, 0))[0]
    do_io(c, [(0, "write", 0, BS)])
    assert 0 not in stage.caches[1]  # write-invalidate fired
    new = c.transport.stats.by_kind.get("invalidate", (0, 0))[0]
    assert new > invalidations


# -- RMW absorption --------------------------------------------------------

def test_raid5_destage_absorbs_old_data_prereads():
    """A partial-stripe write of a freshly-filled block destages
    without the old-data pre-read: only the parity read remains."""
    c = cached_cluster(arch="raid5")
    do_io(c, [(0, "write", 0, BS // 2)], drain=False)
    # The RMW fill read the block; remember the read count, then
    # destage: an absorbing RMW adds parity reads but no data re-read.
    fills = total_reads(c)
    assert fills > 0
    do_io(c, [], drain=True)
    absorbed_reads = total_reads(c) - fills

    c2 = build_cluster(small_config(n=4), architecture="raid5")
    do_io(c2, [(0, "write", 0, BS // 2)])
    uncached_reads = total_reads(c2)
    # Uncached RMW reads old data + old parity; the absorbed destage
    # drops the old-data read.
    assert absorbed_reads < uncached_reads


# -- legality --------------------------------------------------------------

def test_cached_system_never_fast_forwards():
    """A cached request always takes the event-driven path, whatever its
    shape: a cold single-block read (a clean miss), resident re-reads
    (hits) and write hits under the destage threshold, with the node
    fast-forward on."""
    c = cached_cluster()
    assert c.storage.node_ff
    do_io(c, [(0, "read", 0, BS)] * 4 + [(0, "write", BS, BS)] * 2)
    eng = c.storage.engine
    assert eng.fast_submits == 0
    assert eng.phase_submits == 6
    st = stage_of(c).caches[0].stats
    assert st.misses == 1
    assert st.hits == 3


def test_cache_spans_recorded():
    tracer = obs_runtime.install()
    c = cached_cluster()
    do_io(c, [(0, "write", 0, BS), (0, "read", 0, BS)])
    kinds = {s.kind for s in tracer.spans}
    assert CACHE_LOOKUP in kinds
    assert CACHE_DESTAGE in kinds


# -- observability ---------------------------------------------------------

def test_collect_load_exposes_cache_counters():
    c = cached_cluster()
    do_io(c, [(0, "read", 0, 2 * BS)] * 3 + [(0, "write", 0, BS)])
    reg = collect_load(c)
    assert reg.counter("load.node0.cache.hits").value > 0
    assert reg.counter("load.node0.cache.misses").value > 0
    assert reg.counter("load.node0.cache.destaged").value > 0
    ratios = cache_hit_ratios(reg)
    assert 0 < ratios[0] < 1
