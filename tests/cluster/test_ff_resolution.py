"""Fast-path plan resolution: the bounded ``_ff_plans`` write memo and
the requests the resolvers must hand back to the phase path.

The memo replays a pure function of its key, so its only observable
contract is its bound: FIFO eviction at ``_FF_PLAN_CAP`` entries,
counted in ``ff_plan_evictions``, and an evicted key re-resolves to the
identical tuple.  Reads resolve directly and never enter it.  A
zero-length request has no piece to price; the fast path must fall back
so that FF on and FF off agree.
"""

import pytest

from repro.cache import CacheConfig
from repro.cluster import engine as engine_mod
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.units import KiB
from repro.workloads.openloop import OpenLoopWorkload
from tests.conftest import small_config
from tests.hardware.test_node_fastforward import _hex, _signature

BS = 32 * KiB
ARRAYS = ("raid0", "raid5", "raid10", "chained", "raidx")


def _local_blocks(cluster, n):
    """``n`` distinct (client, offset) single-block requests, each served
    by the requesting node's own disk."""
    layout = cluster.storage.layout
    n_nodes = len(cluster.nodes)
    return [
        (layout.data_location(b).disk % n_nodes, b * BS)
        for b in range(n)
    ]


def _submit_spaced(cluster, op, requests, gap=1.0):
    """Submit each (client, offset) request after the previous one has
    long finished, so every request meets an idle pipeline."""
    env = cluster.env

    def driver():
        for client, offset in requests:
            cluster.storage.submit(client, op, offset, BS)
            yield gap

    env.process(driver())
    env.run()


def test_memo_evicts_oldest_first_at_the_cap(monkeypatch):
    # RAID-0's one-block write is one plain data write: the write shape
    # the fast path prices, and so the one the memo serves.
    cap, n = 4, 11
    monkeypatch.setattr(engine_mod, "_FF_PLAN_CAP", cap)
    cluster = build_cluster(small_config(n=4), architecture="raid0")
    engine = cluster.storage.engine
    writes = _local_blocks(cluster, n)
    keys = [(c, off, BS) for c, off in writes]

    _submit_spaced(cluster, "write", writes[:1])
    first = engine._ff_plans[keys[0]]
    assert first is not None
    _submit_spaced(cluster, "write", writes[1:])

    assert engine.fast_submits == n
    assert list(engine._ff_plans) == keys[-cap:]
    assert engine.ff_plan_evictions == n - cap
    # Re-resolving an evicted key replays the identical answer and
    # re-enters the memo as its newest entry, evicting the oldest.
    assert engine._ff_resolved(*keys[0]) == first
    assert list(engine._ff_plans) == keys[-cap + 1:] + keys[:1]
    assert engine.ff_plan_evictions == n - cap + 1


def test_memo_holds_a_whole_default_region_without_evicting():
    cluster = build_cluster(trojans_cluster(n=12), architecture="raid0")
    wl = OpenLoopWorkload(
        cluster, rate_ops_per_s=8.0 * 12, duration_s=None,
        n_requests=20_000, op="write", placement="local", seed=3,
    )
    result = wl.run()
    engine = cluster.storage.engine
    assert result.completed == 20_000
    assert engine.ff_plan_evictions == 0
    # More distinct request shapes than a 4,096-entry memo could keep.
    assert 4096 < len(engine._ff_plans) <= engine_mod._FF_PLAN_CAP


@pytest.mark.parametrize("arch", ARRAYS)
def test_no_read_key_enters_the_memo(arch):
    cluster = build_cluster(small_config(n=4), architecture=arch)
    engine = cluster.storage.engine
    _submit_spaced(cluster, "read", _local_blocks(cluster, 12))
    # (A mirrored array may rank a remote copy first; those fall back.)
    assert engine.fast_submits > 0
    assert not engine._ff_plans
    assert engine.ff_plan_evictions == 0


def _zero_length_run(arch, node_ff, cached):
    cluster = build_cluster(
        small_config(n=4), architecture=arch,
        cache=CacheConfig(capacity_blocks=64) if cached else None,
    )
    cluster.storage.node_ff = node_ff
    env = cluster.env
    storage = cluster.storage
    results = []

    def outcome(i):
        def cb(event):
            results.append((i, event._ok, _hex(env.now)))
        return cb

    # A zero-length read and write, then a real read of the same block.
    for i, (op, nbytes) in enumerate(
        (("read", 0), ("write", 0), ("read", BS))
    ):
        storage.submit(0, op, 0, nbytes).callbacks.append(outcome(i))
    env.run()
    sig = _signature(cluster, results)
    engine = storage.engine
    sig["engine"] = (engine.fast_submits, engine.phase_submits)
    if cached:
        sig["cache"] = [vars(c.stats).copy() for c in engine.cache.caches]
    return sig


@pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("arch", ARRAYS)
def test_zero_length_request_matches_event_path(arch, cached):
    fast = _zero_length_run(arch, True, cached)
    slow = _zero_length_run(arch, False, cached)
    assert fast == slow
    # Both zero-length requests complete, successfully, at t=0.
    assert fast["results"][:2] == [(0, True, _hex(0.0)), (1, True, _hex(0.0))]
