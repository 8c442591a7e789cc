"""End-to-end tracing through the full request path.

A locked RAID-x write burst must produce spans from every layer a
request touches: the root request, kernel driver entries, protocol CPU,
NIC tx/rx, SCSI, disk queue+service, lock-grant waits, and the deferred
background image flushes.
"""

import pytest

from repro.cluster.cluster import build_cluster
from repro.obs import runtime as obs_runtime
from repro.obs.trace import (
    CKPT_SYNC,
    CKPT_WRITE,
    CPU_DRIVER,
    CPU_PROTO,
    DISK_QUEUE_WAIT,
    DISK_SERVICE,
    LOCK_WAIT,
    MIRROR_FLUSH,
    NET_RX,
    NET_TX,
    REQUEST,
    SCSI_TRANSFER,
)
from repro.units import KiB, MB
from repro.workloads.parallel_io import ParallelIOWorkload
from tests.conftest import small_config


def _run_raidx_writes(tracer, clients: int = 4):
    cluster = build_cluster(
        small_config(n=4, k=2), architecture="raidx", locking=True
    )
    wl = ParallelIOWorkload(
        cluster, clients, op="write", size=256 * KiB, queue_depth=2
    )
    wl.run()
    cluster.env.run(cluster.env.process(cluster.storage.drain()))
    return cluster


def test_locked_raidx_write_covers_all_layers():
    tracer = obs_runtime.install()
    _run_raidx_writes(tracer)
    kinds = tracer.kinds()
    for kind in (
        REQUEST,
        DISK_QUEUE_WAIT,
        DISK_SERVICE,
        NET_TX,
        NET_RX,
        LOCK_WAIT,
        MIRROR_FLUSH,
        CPU_DRIVER,
        CPU_PROTO,
        SCSI_TRANSFER,
    ):
        assert kind in kinds, f"missing span kind {kind}"


def test_trace_id_links_request_to_leaf_spans():
    tracer = obs_runtime.install()
    _run_raidx_writes(tracer, clients=2)
    for root in tracer.by_kind(REQUEST):
        assert root.trace is not None
        linked = tracer.by_trace(root.trace)
        leaf_kinds = {s.kind for s in linked}
        # Every request reaches a disk, and all linked spans nest inside
        # the request window (background flushes may outlive it).
        assert DISK_SERVICE in leaf_kinds
        for s in linked:
            if s.kind in (MIRROR_FLUSH, REQUEST):
                continue
            assert s.start >= root.start - 1e-12
    # Distinct requests get distinct ids.
    ids = [r.trace for r in tracer.by_kind(REQUEST)]
    assert len(ids) == len(set(ids))


def test_mirror_flush_spans_are_background():
    tracer = obs_runtime.install()
    _run_raidx_writes(tracer)
    flushes = tracer.by_kind(MIRROR_FLUSH)
    assert flushes
    assert all(s.args["deferred"] for s in flushes)
    assert all(s.track.endswith(".mirror") for s in flushes)
    # Background disk ops carry priority=1 on their service spans.
    bg = [
        s for s in tracer.by_kind(DISK_SERVICE)
        if s.args.get("priority") == 1
    ]
    assert bg


def test_disk_spans_account_for_service_components():
    tracer = obs_runtime.install()
    cluster = _run_raidx_writes(tracer, clients=2)
    overhead = cluster.config.disk.controller_overhead_s
    for s in tracer.by_kind(DISK_SERVICE):
        parts = s.args["seek"] + s.args["rotation"] + s.args["transfer"]
        assert s.duration == pytest.approx(parts + overhead, rel=1e-9)


def test_metrics_histograms_populated_per_layer():
    tracer = obs_runtime.install()
    _run_raidx_writes(tracer)
    names = tracer.metrics.histogram_names()
    assert DISK_SERVICE in names
    assert REQUEST in names
    req = tracer.metrics.histogram(REQUEST)
    assert req.percentile(50) <= req.percentile(99) <= req.max


def test_disabled_tracer_records_nothing():
    obs_runtime.reset()
    cluster = build_cluster(
        small_config(n=4), architecture="raidx", locking=True
    )
    cluster.env.run(cluster.storage.write(0, 0, 128 * KiB))
    assert len(obs_runtime.TRACER) == 0


def test_tracing_is_timing_neutral():
    """Tracing observes; it must not change simulated timing."""
    def elapsed(with_tracing: bool) -> float:
        if with_tracing:
            obs_runtime.install()
        else:
            obs_runtime.reset()
        cluster = build_cluster(
            small_config(n=4, k=2), architecture="raidx", locking=True
        )
        ParallelIOWorkload(
            cluster, 4, op="write", size=256 * KiB, queue_depth=2
        ).run()
        cluster.env.run(cluster.env.process(cluster.storage.drain()))
        return cluster.env.now

    assert elapsed(False) == elapsed(True)


def test_raid5_stripe_lock_wait_spans():
    tracer = obs_runtime.install()
    cluster = build_cluster(small_config(n=4), architecture="raid5")
    ParallelIOWorkload(cluster, 4, op="write", size=512 * KiB).run()
    stripe_waits = [
        s for s in tracer.by_kind(LOCK_WAIT)
        if s.args.get("scope") == "stripe"
    ]
    assert stripe_waits


def test_nfs_requests_traced():
    tracer = obs_runtime.install()
    cluster = build_cluster(small_config(n=4), architecture="nfs")
    cluster.env.run(cluster.storage.write(1, 0, 64 * KiB))
    kinds = tracer.kinds()
    assert REQUEST in kinds
    assert NET_TX in kinds and NET_RX in kinds
    assert DISK_SERVICE in kinds


def test_checkpoint_spans():
    from repro.checkpoint.coordinated import CheckpointConfig, CheckpointRun

    tracer = obs_runtime.install()
    cluster = build_cluster(small_config(n=4, k=2), architecture="raidx")
    run = CheckpointRun(
        cluster,
        CheckpointConfig(processes=4, state_bytes=1 * MB, scheme="parallel"),
    )
    run.run()
    kinds = tracer.kinds()
    assert CKPT_SYNC in kinds
    assert CKPT_WRITE in kinds
    writes = tracer.by_kind(CKPT_WRITE)
    assert len(writes) == 4
    assert {s.args["process"] for s in writes} == {0, 1, 2, 3}


def test_bottleneck_report_uses_spans():
    from repro.analysis.bottleneck import resource_usage

    tracer = obs_runtime.install()
    cluster = _run_raidx_writes(tracer)
    by_name = {u.name: u for u in resource_usage(cluster)}
    assert by_name["disk"].peak > 0
    # Background flush service inflates total disk busy over foreground.
    assert by_name["disk"].peak >= by_name["disk_foreground"].peak
    assert by_name["nic_tx"].peak > 0
