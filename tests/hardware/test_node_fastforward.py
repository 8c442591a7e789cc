"""Node fast-forward vs the event-driven hop chain: byte-identical.

With ``node_ff`` on, a conflict-free local request collapses the
CPU → SCSI → disk pipeline into three eager closed-form claims (see
``Node.try_fast_forward``); the moment any conflict predicate fails the
request takes the full event-driven path.  Timing must be *exactly*
preserved either way: these tests run seeded open-loop-style scenarios
with both modes and compare full signatures — completion floats
(hex-exact), per-device stats, scheduler depth, byte accounting, CDD
counters, and the span stream.  Both modes run with the PR-5 disk
fast-forward enabled, so this pins node-FF against the disk-FF phase
path that PR 5 already pinned against the true generator loop.
"""

import hashlib
import json
import random

import pytest

from repro.cluster.cluster import build_cluster
from repro.cluster.systems import DistributedArraySystem
from repro.obs import runtime as obs_runtime
from repro.sim.core import Process
from tests.conftest import small_config


def _hex(v):
    return v.hex() if isinstance(v, float) else v


def _signature(cluster, results):
    st = cluster.storage
    return {
        "final": _hex(cluster.env.now),
        "results": results,
        "bytes_read": _hex(st.bytes_read),
        "bytes_written": _hex(st.bytes_written),
        "issued": [c.issued_ops for c in cluster.cdds],
        "local_ops": cluster.transport.stats.local_block_ops,
        "remote_ops": cluster.transport.stats.remote_block_ops,
        "cpu_busy": [_hex(n.cpu._work.busy_time) for n in cluster.nodes],
        "cpu_work": [_hex(n.cpu._work.bytes_carried) for n in cluster.nodes],
        "scsi_busy": [_hex(n.scsi._link.busy_time) for n in cluster.nodes],
        "scsi_bytes": [
            _hex(n.scsi._link.bytes_carried) for n in cluster.nodes
        ],
        "nic": [
            (_hex(nic.bytes_sent), _hex(nic.bytes_received))
            for nic in cluster.network.nics
        ],
        "disks": [
            {
                "busy": _hex(d.stats.busy_time),
                "busy_fg": _hex(d.stats.busy_time_foreground),
                "busy_bg": _hex(d.stats.busy_time_background),
                "seek": _hex(d.stats.seek_time),
                "rot": _hex(d.stats.rotation_time),
                "xfer": _hex(d.stats.transfer_time),
                "reads": d.stats.reads,
                "writes": d.stats.writes,
                "br": _hex(d.stats.bytes_read),
                "bw": _hex(d.stats.bytes_written),
                "seq": d.stats.sequential_hits,
                "depth": d.scheduler.max_depth_seen,
                "qd_hw": d.stats.queue_depth_hw,
            }
            for d in cluster.all_disks()
        ],
    }


def _run_scenario(
    node_ff,
    arch="raid0",
    op_mix="mixed",
    placement="mixed",
    chaos=False,
    traced=False,
    locking=False,
    read_policy="static",
    sample=1.0,
):
    """Drive a seeded request mix with node-FF forced on or off.

    Gap choices span well below and well above a disk service time, so
    requests land both on idle pipelines (fast-forward eligible) and on
    busy ones (predicate fails, event-driven fallback) — the mixed
    regime is where claim-order bugs would show.
    """
    kwargs = {"read_policy": read_policy} if arch != "nfs" else {}
    cluster = build_cluster(
        small_config(n=4),
        architecture=arch,
        locking=locking,
        **kwargs,
    )
    cluster.storage.node_ff = node_ff
    env = cluster.env
    storage = cluster.storage
    bs = storage.block_size
    results = []
    spans = []

    def outcome(i):
        def cb(event):
            if not event._ok:
                event.defused()
            results.append((i, event._ok, _hex(env.now)))

        return cb

    def driver():
        rnd = random.Random(0xA11D)
        idx = 0
        for step in range(50):
            for j in range(1 + step % 3):
                block = rnd.randrange(0, 160)
                disk = storage.layout.data_location(block).disk
                if placement == "local" or (placement == "mixed" and
                                            (step + j) % 2):
                    client = disk % cluster.n_nodes
                else:
                    client = (step + j) % cluster.n_nodes
                if op_mix == "read":
                    op = "read"
                elif op_mix == "write":
                    op = "write"
                else:
                    op = "read" if (step + j) % 3 else "write"
                nbytes = bs if (step + j) % 4 else bs // 2
                ev = storage.submit(client, op, block * bs, nbytes)
                ev.callbacks.append(outcome(idx))
                idx += 1
            # Sometimes shorter than a service time (overlap → fallback),
            # sometimes long enough to drain and park every device.
            yield rnd.choice((0.0002, 0.003, 0.06))

    def chaos_proc():
        # Failure/repair at drain points: the kill-switch must flip the
        # run to the event-driven path from that moment on.
        yield 1.4
        storage.fail_disk(1)
        yield 0.8
        storage.repair_disk(1)

    if traced:
        ctx = obs_runtime.tracing(sample_rate=sample, sample_seed=7)
        tracer = ctx.__enter__()
    env.process(driver())
    if chaos:
        env.process(chaos_proc())
    env.run()
    if traced:
        spans = [
            [s.kind, s.track, _hex(s.start), _hex(s.end), s.trace,
             {k: _hex(v) for k, v in sorted((s.args or {}).items())}]
            for s in tracer.spans
        ]
        ctx.__exit__(None, None, None)
    sig = _signature(cluster, results)
    sig["n_spans"] = len(spans)
    sig["span_sha"] = hashlib.sha256(
        json.dumps(spans, sort_keys=True).encode()
    ).hexdigest()
    return sig, cluster


@pytest.mark.parametrize("arch", ["raid0", "raidx", "raid10", "chained"])
def test_node_ff_matches_phase_path(arch):
    phase, _ = _run_scenario(False, arch=arch)
    ff, cluster = _run_scenario(True, arch=arch)
    assert ff == phase
    # The scenario actually exercised the shortcut and the fallback.
    assert cluster.storage.engine.fast_submits > 5
    assert cluster.transport.stats.remote_block_ops > 0


def test_node_ff_pure_local_reads():
    phase, _ = _run_scenario(False, op_mix="read", placement="local")
    ff, cluster = _run_scenario(True, op_mix="read", placement="local")
    assert ff == phase
    assert cluster.storage.engine.fast_submits > 30


def test_node_ff_local_writes_raid0():
    phase, _ = _run_scenario(False, op_mix="write", placement="local")
    ff, cluster = _run_scenario(True, op_mix="write", placement="local")
    assert ff == phase
    assert cluster.storage.engine.fast_submits > 30


def test_node_ff_with_chaos_kill_switch():
    phase, _ = _run_scenario(False, arch="raidx", chaos=True)
    ff, cluster = _run_scenario(True, arch="raidx", chaos=True)
    assert ff == phase
    # Fast-forwarded before the failure, locked out after it.
    assert cluster.storage.engine.fast_submits > 0
    assert not cluster.storage.node_ff


def test_node_ff_traced_runs_span_identical():
    phase, _ = _run_scenario(False, arch="raidx", traced=True)
    ff, cluster = _run_scenario(True, arch="raidx", traced=True)
    assert ff == phase
    assert ff["n_spans"] > 100
    # Tracing no longer disables the shortcut: the lockstep span
    # synthesis (FFSpanSynth) emits the phase path's spans from the
    # closed-form terms — same timestamps, same append order, same
    # trace ids — so the full-signature comparison above covers the
    # span stream hash too.
    assert cluster.storage.engine.fast_submits > 5


def test_node_ff_sampled_tracing_span_identical():
    # Deterministic sampling keeps the same trace ids on both paths
    # (ids allocate in submit order either way), so the sampled span
    # streams must also match byte for byte — while keeping fewer
    # spans than the full trace.
    full, _ = _run_scenario(True, arch="raidx", traced=True)
    phase, _ = _run_scenario(
        False, arch="raidx", traced=True, sample=0.25
    )
    ff, cluster = _run_scenario(
        True, arch="raidx", traced=True, sample=0.25
    )
    assert ff == phase
    assert cluster.storage.engine.fast_submits > 5
    assert 0 < ff["n_spans"] < full["n_spans"]


def test_node_ff_shortest_queue_reads_fall_back():
    phase, _ = _run_scenario(
        False, op_mix="read", placement="local",
        read_policy="shortest_queue",
    )
    ff, cluster = _run_scenario(
        True, op_mix="read", placement="local",
        read_policy="shortest_queue",
    )
    assert ff == phase
    assert cluster.storage.engine.fast_submits == 0


def test_node_ff_locking_writes_fall_back():
    phase, _ = _run_scenario(
        False, arch="raidx", op_mix="write", placement="local",
        locking=True,
    )
    ff, cluster = _run_scenario(
        True, arch="raidx", op_mix="write", placement="local", locking=True,
    )
    assert ff == phase


@pytest.mark.parametrize("placement", ["mixed", "local"])
@pytest.mark.parametrize("arch", ["raid0", "raidx", "raid10", "chained"])
def test_node_ff_locking_mixed_ops_match_phase_path(arch, placement):
    # A same-instant locking write charges its lock-request CPU at its
    # request Initialize, ahead of a phase read's piece claim; a read
    # priced at submit would take the CPU first.  With locking on, the
    # uncached fast path therefore refuses reads as well as writes.
    phase, _ = _run_scenario(
        False, arch=arch, placement=placement, locking=True
    )
    ff, cluster = _run_scenario(
        True, arch=arch, placement=placement, locking=True
    )
    assert ff == phase
    assert cluster.storage.engine.fast_submits == 0


def test_node_ff_reduces_event_count():
    _, phase_cluster = _run_scenario(
        False, op_mix="read", placement="local"
    )
    _, ff_cluster = _run_scenario(True, op_mix="read", placement="local")
    assert (
        ff_cluster.env.processed_events
        < phase_cluster.env.processed_events
    )


def test_class_switch_controls_node_default(monkeypatch):
    cluster = build_cluster(small_config(n=4), architecture="raid0")
    assert cluster.storage.node_ff
    monkeypatch.setattr(DistributedArraySystem, "node_ff", False)
    cluster = build_cluster(small_config(n=4), architecture="raid0")
    assert not cluster.storage.node_ff
    cluster.storage.read(0, 0, cluster.storage.block_size)
    cluster.env.run()
    assert cluster.storage.engine.fast_submits == 0


def test_fast_submit_returns_plain_event_not_process():
    cluster = build_cluster(small_config(n=4), architecture="raid0")
    storage = cluster.storage
    bs = storage.block_size
    disk = storage.layout.data_location(0).disk
    ev = storage.submit(disk % cluster.n_nodes, "read", 0, bs)
    assert not isinstance(ev, Process)
    cluster.env.run(ev)
    assert cluster.storage.engine.fast_submits == 1
