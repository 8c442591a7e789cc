"""Cached fast-forward vs phase path: byte-identity (DESIGN §6.18).

PR 10 lets the fast path price cache hits and clean-miss fills in
closed form while a :class:`~repro.cluster.cache_stage.CacheStage` is
attached.  The legality claim is *byte-identity*: with the node
fast-forward on, every completion time (float-hex), the sampled span
stream (sha256 over the rendered spans), and every cache/disk/link
counter must equal the event-driven run's.  These tests drive seeded
mixed workloads — concurrent bursts, remote placements, partial-block
ops, destage pressure — through both paths and diff the signatures.

The deterministic sweep pins the regressions the development of the
fill stepper actually hit (same-instant claim-order inversion,
same-time completion-tie callback order, double-preload through the
deferral window); the Hypothesis property searches the neighborhood.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, cache_enabled
from repro.cluster.cluster import build_cluster
from repro.hardware import node as node_mod
from repro.obs import runtime as obs_runtime
from tests.conftest import small_config
from tests.hardware.test_node_fastforward import _hex, _signature

pytestmark = pytest.mark.skipif(
    not cache_enabled(), reason="REPRO_CACHE=0 disables the cache layer"
)

CACHE_STAT_KEYS = (
    "hits", "misses", "fills", "write_absorbed", "destaged", "lost",
    "invalidations", "evictions", "dirty_hw", "destage_batches",
)


@pytest.fixture(autouse=True)
def _reset_tracer():
    yield
    obs_runtime.reset()


def _run(
    node_ff, arch="raidx", traced=False, sample=1.0, capacity=64,
    mode="writeback", ops=None,
):
    """One cached run; returns (signature, span sha, heap pops).

    ``ops`` is a list of (op, client, block, nbytes, gap_s) steps; a
    zero gap submits the next request at the same instant — the regime
    where claim ordering and completion ties live.
    """
    old = node_mod.NODE_FAST_FORWARD
    node_mod.NODE_FAST_FORWARD = node_ff
    try:
        cluster = build_cluster(
            small_config(n=4), architecture=arch,
            cache=CacheConfig(capacity_blocks=capacity, destage_batch=8,
                              mode=mode),
        )
    finally:
        node_mod.NODE_FAST_FORWARD = old
    env = cluster.env
    storage = cluster.storage
    results = []

    def outcome(i):
        def cb(event):
            if not event._ok:
                event.defused()
            results.append((i, event._ok, _hex(env.now)))
        return cb

    def driver():
        for i, (op, client, offset, nbytes, gap) in enumerate(ops):
            ev = storage.submit(client, op, offset, nbytes)
            ev.callbacks.append(outcome(i))
            if gap:
                yield gap

    spans = []
    if traced:
        ctx = obs_runtime.tracing(sample_rate=sample, sample_seed=7)
        tracer = ctx.__enter__()
    env.process(driver())
    env.run()
    if traced:
        spans = [
            [s.kind, s.track, _hex(s.start), _hex(s.end), s.trace,
             {k: _hex(v) for k, v in sorted((s.args or {}).items())}]
            for s in tracer.spans
        ]
        ctx.__exit__(None, None, None)
    sig = _signature(cluster, results)
    stage = storage.engine.cache
    sig["cache"] = [
        {k: getattr(c.stats, k) for k in CACHE_STAT_KEYS}
        for c in stage.caches
    ]
    sig["fast_split"] = (
        storage.engine.fast_hits + storage.engine.fast_fills
        == storage.engine.fast_submits
    )
    sha = hashlib.sha256(
        json.dumps(spans, sort_keys=True).encode()
    ).hexdigest()
    return sig, sha, env.processed_events


def _seeded_ops(seed, span_range, steps=50, bs=32 * 1024, n=4):
    """The mixed workload the development sweeps used: bursts of 1–3
    requests per step, local and remote placements, full and partial
    blocks, gaps from same-instant-adjacent to idle."""
    rnd = random.Random(seed)
    ops = []
    for step in range(steps):
        burst = 1 + step % 3
        for j in range(burst):
            block = rnd.randrange(0, span_range)
            if (step + j) % 2:
                client = block % n
            else:
                client = (step + j) % n
            op = "read" if (step + j) % 3 else "write"
            nbytes = bs if (step + j) % 4 else bs // 2
            gap = rnd.choice((0.0002, 0.003, 0.06)) if j == burst - 1 else 0
            ops.append((op, client, block * bs, nbytes, gap))
    return ops


def _assert_identical(**kw):
    phase_sig, phase_sha, _ = _run(False, **kw)
    ff_sig, ff_sha, _ = _run(True, **kw)
    for key in phase_sig:
        assert ff_sig[key] == phase_sig[key], key
    assert ff_sha == phase_sha


@pytest.mark.parametrize("arch", ["raidx", "raid0", "raid5"])
@pytest.mark.parametrize("traced", [False, True])
def test_cached_ff_identical_on_mixed_workload(arch, traced):
    _assert_identical(
        arch=arch, traced=traced, ops=_seeded_ops(0xA11D, 40)
    )


@pytest.mark.parametrize("mode", ["writeback", "writethrough"])
def test_cached_ff_identical_across_write_modes(mode):
    _assert_identical(
        arch="raidx", traced=True, mode=mode, ops=_seeded_ops(1, 8)
    )


def test_cached_ff_identical_under_sampled_tracing_tie_regression():
    """Seed 99 / span 40 reproduces a same-instant completion tie
    between a phase-vetoed request and a fast-forwarded fill: the
    fill's disk marker must draw its heap key at the dispatch-wake
    pop, not at submit, or the workload callbacks fire in the wrong
    order (the bug the full pop-chain replay in ``_FFFill`` fixes).
    """
    for capacity in (8, 64):
        _assert_identical(
            arch="raidx", traced=True, sample=0.4, capacity=capacity,
            ops=_seeded_ops(99, 40),
        )


def test_cached_ff_identical_under_destage_pressure():
    """A small cache forces eviction and destage sweeps between fills;
    the fill veto (dirty blocks, sweeps in flight) must hold the fast
    path off exactly when the phase path's claims are pending."""
    _assert_identical(
        arch="raidx", traced=True, capacity=8, ops=_seeded_ops(2024, 400)
    )


op_st = st.tuples(
    st.sampled_from(["read", "write"]),
    st.integers(min_value=0, max_value=3),   # client
    st.integers(min_value=0, max_value=39),  # block
    st.sampled_from([32 * 1024, 16 * 1024]),  # nbytes
    st.sampled_from([0, 0.0002, 0.01]),      # gap to next submit
)


@given(
    arch=st.sampled_from(["raidx", "raid0", "raid5"]),
    traced=st.booleans(),
    raw=st.lists(op_st, min_size=1, max_size=12),
)
@settings(max_examples=25, deadline=None)
def test_cached_ff_equivalence_property(arch, traced, raw):
    bs = 32 * 1024
    ops = [
        (op, client, block * bs, nbytes, gap)
        for op, client, block, nbytes, gap in raw
    ]
    _assert_identical(arch=arch, traced=traced, ops=ops)
