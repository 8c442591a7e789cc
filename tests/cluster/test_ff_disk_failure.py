"""A disk failure inside a fast-forwarded read's window.

The fast path prices a request at submit and arms the disk's completion
for the closed-form finish time, so a disk can fail while a priced read
is still in its window: before the bus delivers it to the disk, or
while the disk serves it.  The event-driven ("phase") path meets the
failure in ``ExecutionEngine._read_piece``, which marks the disk failed
and re-reads from a surviving copy (or reconstructs).  The fast path
must end the same way: the workload's event succeeds, the bytes are
accounted once, and the in-flight counters drain to zero.  Timing after
the failure need not match the phase path.  A cached read always takes
the phase path, with the node fast-forward on or off.

Client 0 cold-reads the first block it owns; a process fails that disk
at 1 µs (before the bus delivers the read) or at 1 ms (inside the
disk's service).
"""

import pytest

from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.obs import runtime as obs_runtime
from tests.conftest import small_config

BEFORE_DISPATCH = 1e-6
DURING_SERVICE = 1e-3


def _run(node_ff, cached, arch, fail_at):
    cluster = build_cluster(
        small_config(n=4), architecture=arch,
        cache=CacheConfig(capacity_blocks=64) if cached else None,
    )
    cluster.storage.node_ff = node_ff
    env = cluster.env
    storage = cluster.storage
    bs = storage.block_size
    block = next(
        b for b in range(64)
        if storage.layout.data_location(b).disk % cluster.n_nodes == 0
    )
    disk = storage.layout.data_location(block).disk

    def failer():
        yield fail_at
        storage.fail_disk(disk)

    outcome = []

    def record(event):
        if not event._ok:
            event.defused()  # report the failure instead of crashing run()
        outcome.append(event._value if not event._ok else "ok")

    env.process(failer())
    storage.submit(0, "read", block * bs, bs).callbacks.append(record)
    env.run()
    return cluster, outcome, bs


@pytest.mark.parametrize("fail_at", [BEFORE_DISPATCH, DURING_SERVICE],
                         ids=["before_dispatch", "during_service"])
@pytest.mark.parametrize("arch", ["raidx", "raid10", "raid5", "chained"])
@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("node_ff", [False, True], ids=["ff0", "ff1"])
def test_mid_window_failure_recovers_from_redundancy(
    node_ff, cached, arch, fail_at
):
    cluster, outcome, bs = _run(node_ff, cached, arch, fail_at)
    engine = cluster.storage.engine
    # The read took the path under test.
    assert engine.fast_submits == int(node_ff and not cached)
    assert outcome == ["ok"]
    assert cluster.storage.bytes_read == bs
    assert engine.phase_inflight == [0] * cluster.n_nodes
    stage = engine.cache
    if cached:
        assert stage._active == 0
        assert stage.caches[0].stats.misses == 1
    # The retry read the block elsewhere: nothing is left queued.
    assert all(d.queue_depth == 0 for d in cluster.all_disks())


@pytest.mark.parametrize("fail_at", [BEFORE_DISPATCH, DURING_SERVICE],
                         ids=["before_dispatch", "during_service"])
@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_mid_window_failure_under_tracing_ends_one_request(cached, fail_at):
    """Traced, the fast path's span replay (or the cached phase path)
    waits on the rescued read and still closes the request once."""
    with obs_runtime.tracing() as tracer:
        cluster, outcome, bs = _run(True, cached, "raidx", fail_at)
    assert cluster.storage.engine.fast_submits == int(not cached)
    assert outcome == ["ok"]
    (request,) = [s for s in tracer.spans if s.kind == "request"]
    assert request.end == cluster.env.now
    assert {s.trace for s in tracer.spans if s.trace is not None} == {
        request.trace
    }
