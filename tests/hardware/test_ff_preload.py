"""The lone-request preload and dense open loops, node fast-forward on
and off.

A fast-forwarded request reaches a parked disk with nothing pending, so
``Disk.ff_preload`` skips the scheduler: no push, no pop, only the
bookkeeping the round trip would leave (``DiskScheduler.pass_through``).
These tests pin that structure, and then the whole fast path against
the event-driven path on a 16-node local-read open loop dense enough
that disks are often busy: completion floats, the latency histogram,
the ``collect_load`` payload and the span stream at two sampling rates.
"""

import hashlib
import json
import random

import pytest

from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.obs import runtime as obs_runtime
from repro.workloads.openloop import OpenLoopWorkload
from tests.cluster.test_pop_identity import load_payload
from tests.conftest import small_config

POLICIES = ("fifo", "sstf", "look")


def _sched_state(cluster):
    return [
        (
            d.scheduler._seq,
            d.scheduler.max_depth_seen,
            getattr(d.scheduler, "_direction", None),
        )
        for d in cluster.all_disks()
    ]


def _spaced_reads(node_ff, policy, calls=None):
    """Local one-block reads in a seeded random block order, each after
    the last has finished, so every one meets a parked disk."""
    cluster = build_cluster(
        small_config(n=4), architecture="raid0", scheduler_policy=policy
    )
    storage = cluster.storage
    storage.node_ff = node_ff
    if calls is not None:
        for d in cluster.all_disks():
            sched = d.scheduler
            for name in ("push", "pop"):
                def counted(*args, _fn=getattr(sched, name), _name=name,
                            **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                setattr(sched, name, counted)
    bs = storage.block_size
    blocks = random.Random(5).sample(range(400), 60)
    history = []

    def driver():
        for b in blocks:
            client = storage.layout.data_location(b).disk % cluster.n_nodes
            storage.submit(client, "read", b * bs, bs)
            yield 0.5
            history.append(_sched_state(cluster))

    cluster.env.process(driver())
    cluster.env.run()
    return cluster, history


@pytest.mark.parametrize("policy", POLICIES)
def test_preload_makes_no_scheduler_round_trip(policy):
    calls = {"push": 0, "pop": 0}
    ff, ff_history = _spaced_reads(True, policy, calls)
    _, phase_history = _spaced_reads(False, policy)
    assert ff.storage.engine.fast_submits == 60
    assert calls == {"push": 0, "pop": 0}
    # After every request, the bookkeeping the round trip leaves is the
    # phase path's: the arrival sequence, the depth high-water and
    # LOOK's sweep direction, which turns both ways here.
    assert ff_history == phase_history
    if policy == "look":
        turns = {d for state in ff_history for _, _, d in state}
        assert turns == {-1, 1}


def _dense_open_loop(node_ff, sample=None):
    """16 nodes, owner-local Poisson reads at 60 req/s per node: disks are
    busy often enough that a good share of requests fall back."""
    cluster = build_cluster(trojans_cluster(n=16), architecture="raidx")
    cluster.storage.node_ff = node_ff
    wl = OpenLoopWorkload(
        cluster, rate_ops_per_s=60.0 * 16, duration_s=None,
        n_requests=3000, op="read", placement="local", seed=11,
        exact_latencies=True,
    )
    spans = []
    if sample is None:
        result = wl.run()
    else:
        with obs_runtime.tracing(sample_rate=sample, sample_seed=3) as tr:
            result = wl.run()
            spans = [
                [s.kind, s.track, s.start.hex(), s.end.hex(), s.trace,
                 sorted((s.args or {}).items())]
                for s in tr.spans
            ]
    engine = cluster.storage.engine
    sig = {
        "completions": [lat.hex() for lat in result.latencies],
        "final": cluster.env.now.hex(),
        "hist": result.histogram.to_payload(),
        "load": load_payload(cluster),
        "sched": _sched_state(cluster),
        "n_spans": len(spans),
        "span_sha": hashlib.sha256(
            json.dumps(spans, default=repr).encode()
        ).hexdigest(),
    }
    return sig, engine


def test_dense_open_loop_matches_phase_path():
    phase, _ = _dense_open_loop(False)
    ff, engine = _dense_open_loop(True)
    assert ff == phase
    # Both regimes are exercised: about half the requests fast-forward,
    # and the rest meet a busy disk and fall back.
    assert engine.fast_submits > 1000
    assert engine.phase_submits > 1000


@pytest.mark.parametrize("sample", [0.01, 1.0], ids=["1pct", "full"])
def test_dense_open_loop_traced_span_streams_match(sample):
    phase, _ = _dense_open_loop(False, sample)
    ff, engine = _dense_open_loop(True, sample)
    assert ff == phase
    assert ff["n_spans"] > 0
    assert engine.fast_submits > 1000
