"""Pop identity: the event-driven path's heap pops, pinned per point.

The engine-equivalence goldens pin *traced* outputs (completion times,
span streams); none of them counts heap pops.  A speed-only change to
the message hop, process spawn/join or link waits must push the same
``(time, key)`` entries in the same order, so it must leave
``env.processed_events`` — and every simulated time — bit-identical.

``golden_pop_identity.json`` holds, for small 12-client Fig. 5
``large_read``/``large_write`` points on raidx, raid5, raid10 and nfs,
untraced, with the node fast-forward on and off:

* the total pop count (``env.processed_events``);
* the elapsed time and each client's finish time as float hex;
* how many requests took the fast and the event-driven path
  (``ExecutionEngine.fast_submits``/``phase_submits``; ``None`` on NFS);
* a sha256 of the canonical ``collect_load`` payload without its
  host-side counters (:data:`HOST_COUNTERS`), so the hash pins
  simulated load only.

Twelve clients keep the fabric's incast model active (its threshold is
six in-flight senders per receive port).  An added ``yield 0`` in a
message hop changes the pop count; a reordered link reservation
changes the times.

The ``replay/node/...`` points pin the fast path's span replay the
same way (pops, final time as float hex, span-stream sha256), with the
node fast-forward on and off: the traced and sampled uncached node-FF
scenarios of ``tests/hardware/test_node_fastforward.py`` (lockstep span
synthesis).  The FF on/off suites compare times and spans only; these
points also catch a replay that adds or drops a pop.  The
``replay/cache/...`` points, captured while cached requests still had
closed-form replays, pin seeded mixed workloads through the buffer
cache (:func:`run_cached`) on raidx, raid0 and raid5, untraced and
traced.

The ``cached/...`` points pin the cached path's hard cases the same
way, plus a sha256 of the full run signature (every completion time,
cache, disk and link counter): a same-instant completion tie under
sampled tracing (seed 99, capacity 8 and 64), destage pressure from a
small cache, and both write modes.  A cached system always takes the
event-driven path, so ``node_ff`` on and off must agree.

Regenerate (only for an intended change of simulated behaviour)::

    PYTHONPATH=src python -m tests.cluster.test_pop_identity
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.obs import runtime as obs_runtime
from repro.obs.load import collect_load
from repro.units import KiB
from repro.workloads.parallel_io import ParallelIOWorkload
from tests.conftest import small_config
from tests.hardware.test_node_fastforward import (
    _hex,
    _run_scenario,
    _signature,
)

GOLDEN = pathlib.Path(__file__).parent / "golden_pop_identity.json"

CLIENTS = 12
#: Per-client file size: 16 chunks of 32 KiB, four in flight (Fig. 5
#: moves 2 MB per client the same way).
SIZE = 512 * KiB
OPS = {"large_read": "read", "large_write": "write"}
POINTS = [
    (arch, workload, node_ff)
    for arch in ("raidx", "raid5", "raid10", "nfs")
    for workload in OPS
    for node_ff in (True, False)
]


#: (path, arch, tracing, node_ff): the span replay and cached runs.
REPLAY_POINTS = [
    ("node", "raidx", tracing, node_ff)
    for tracing in ("traced", "sampled")
    for node_ff in (True, False)
] + [
    ("cache", arch, tracing, node_ff)
    for arch in ("raidx", "raid0", "raid5")
    for tracing in ("untraced", "traced")
    for node_ff in (True, False)
]


CACHE_STAT_KEYS = (
    "hits", "misses", "fills", "write_absorbed", "destaged", "lost",
    "invalidations", "evictions", "dirty_hw", "destage_batches",
)


def _seeded_ops(seed, span_range, steps=50, bs=32 * 1024, n=4):
    """A seeded mixed workload: bursts of 1–3 requests per step, local
    and remote placements, full and partial blocks, gaps from
    same-instant-adjacent to idle.  Each step is (op, client, offset,
    nbytes, gap_s); a zero gap submits the next request at the same
    instant — the regime where claim ordering and completion ties
    live."""
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


#: name -> run_cached keywords: the cached path's hard cases.
CACHED_CASES = {
    # A same-instant completion tie under sampled tracing.
    "tie99-cap8": dict(sample=0.4, capacity=8, ops=(99, 40)),
    "tie99-cap64": dict(sample=0.4, capacity=64, ops=(99, 40)),
    # Eviction and destage sweeps between fills.
    "destage-cap8": dict(capacity=8, ops=(2024, 400)),
    "writeback": dict(mode="writeback", ops=(1, 8)),
    "writethrough": dict(mode="writethrough", ops=(1, 8)),
}
CACHED_POINTS = [
    (case, node_ff) for case in CACHED_CASES for node_ff in (True, False)
]


def run_cached(
    node_ff, arch="raidx", traced=False, sample=1.0, capacity=64,
    mode="writeback", ops=None,
):
    """One seeded run on a 4-node cached array; returns (signature,
    span sha256, heap pops).  ``ops`` is a :func:`_seeded_ops` list."""
    cluster = build_cluster(
        small_config(n=4), architecture=arch,
        cache=CacheConfig(capacity_blocks=capacity, destage_batch=8,
                          mode=mode),
    )
    cluster.storage.node_ff = node_ff
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
    sig["cache"] = [
        {k: getattr(c.stats, k) for k in CACHE_STAT_KEYS}
        for c in storage.engine.cache.caches
    ]
    sha = hashlib.sha256(
        json.dumps(spans, sort_keys=True).encode()
    ).hexdigest()
    return sig, sha, env.processed_events


def _key(arch: str, workload: str, node_ff: bool) -> str:
    return f"{arch}/{workload}/ff{int(node_ff)}"


def _replay_key(path: str, arch: str, tracing: str, node_ff: bool) -> str:
    return f"replay/{path}/{arch}/{tracing}/ff{int(node_ff)}"


def _cached_key(case: str, node_ff: bool) -> str:
    return f"cached/{case}/ff{int(node_ff)}"


#: ``collect_load`` counters that record which path served a request,
#: why the fast path refused one, or how its plan memo fared, not what
#: was simulated; the load hash leaves them out (the submit counts are
#: pinned as fields).  An entry ending in ``.`` names a prefix.
HOST_COUNTERS = (
    "load.fast_submits", "load.phase_submits", "load.ff_plan_evictions",
    "load.ff_fallback.",
)


def load_payload(cluster) -> dict:
    """The ``collect_load`` payload minus :data:`HOST_COUNTERS`."""
    payload = collect_load(cluster).to_payload()
    payload["counters"] = {
        name: value for name, value in payload["counters"].items()
        if not name.startswith(HOST_COUNTERS)
    }
    return payload


def _canonical(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def run_point(arch: str, workload: str, node_ff: bool) -> dict:
    cluster = build_cluster(trojans_cluster(n=12), architecture=arch)
    wl = ParallelIOWorkload(cluster, CLIENTS, op=OPS[workload], size=SIZE)
    storage = cluster.storage
    if hasattr(storage, "node_ff"):  # NFS has no node fast-forward
        storage.node_ff = node_ff
    result = wl.run()
    payload = json.dumps(
        _canonical(load_payload(cluster)),
        sort_keys=True, separators=(",", ":"),
    )
    engine = getattr(storage, "engine", None)
    return {
        "processed_events": cluster.env.processed_events,
        "elapsed": result.elapsed.hex(),
        "per_client_finish": [
            result.per_client_finish[c].hex() for c in range(CLIENTS)
        ],
        "fast_submits": engine.fast_submits if engine else None,
        "phase_submits": engine.phase_submits if engine else None,
        "load_sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }


def run_replay(path: str, arch: str, tracing: str, node_ff: bool) -> dict:
    if path == "node":
        sample = 0.25 if tracing == "sampled" else 1.0
        sig, cluster = _run_scenario(
            node_ff, arch=arch, traced=True, sample=sample
        )
        final, sha = sig["final"], sig["span_sha"]
        pops = cluster.env.processed_events
    else:
        sig, sha, pops = run_cached(
            node_ff, arch=arch, traced=tracing == "traced",
            ops=_seeded_ops(0xA11D, 40),
        )
        final = sig["final"]
    return {"processed_events": pops, "final": final, "span_sha256": sha}


def run_cached_point(case: str, node_ff: bool) -> dict:
    kw = dict(CACHED_CASES[case])
    kw["ops"] = _seeded_ops(*kw["ops"])
    sig, sha, pops = run_cached(node_ff, traced=True, **kw)
    return {
        "processed_events": pops,
        "final": sig["final"],
        "span_sha256": sha,
        "sig_sha256": hashlib.sha256(
            json.dumps(sig, sort_keys=True).encode()
        ).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "arch,workload,node_ff", POINTS, ids=[_key(*p) for p in POINTS]
)
def test_pops_and_times_match_golden(golden, arch, workload, node_ff):
    got = run_point(arch, workload, node_ff)
    want = golden[_key(arch, workload, node_ff)]
    assert got["processed_events"] == want["processed_events"], (
        "heap pop count drifted"
    )
    assert got["elapsed"] == want["elapsed"], "elapsed time drifted"
    assert got["per_client_finish"] == want["per_client_finish"]
    assert (got["fast_submits"], got["phase_submits"]) == (
        want["fast_submits"], want["phase_submits"]
    ), "requests changed path"
    assert got["load_sha256"] == want["load_sha256"], (
        "collect_load payload drifted"
    )


@pytest.mark.parametrize(
    "path,arch,tracing,node_ff", REPLAY_POINTS,
    ids=[_replay_key(*p) for p in REPLAY_POINTS],
)
def test_replay_pops_and_times_match_golden(
    golden, path, arch, tracing, node_ff
):
    got = run_replay(path, arch, tracing, node_ff)
    want = golden[_replay_key(path, arch, tracing, node_ff)]
    assert got["processed_events"] == want["processed_events"], (
        "heap pop count drifted"
    )
    assert got["final"] == want["final"], "final time drifted"
    assert got["span_sha256"] == want["span_sha256"], "span stream drifted"


@pytest.mark.parametrize(
    "case,node_ff", CACHED_POINTS,
    ids=[_cached_key(*p) for p in CACHED_POINTS],
)
def test_cached_pops_and_times_match_golden(golden, case, node_ff):
    got = run_cached_point(case, node_ff)
    want = golden[_cached_key(case, node_ff)]
    assert got["processed_events"] == want["processed_events"], (
        "heap pop count drifted"
    )
    assert got["final"] == want["final"], "final time drifted"
    assert got["span_sha256"] == want["span_sha256"], "span stream drifted"
    assert got["sig_sha256"] == want["sig_sha256"], (
        "completion times or counters drifted"
    )


def test_golden_covers_every_point(golden):
    assert set(golden) == {_key(*p) for p in POINTS} | {
        _replay_key(*p) for p in REPLAY_POINTS
    } | {_cached_key(*p) for p in CACHED_POINTS}


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    captured = {_key(*p): run_point(*p) for p in POINTS}
    captured.update(
        {_replay_key(*p): run_replay(*p) for p in REPLAY_POINTS}
    )
    captured.update(
        {_cached_key(*p): run_cached_point(*p) for p in CACHED_POINTS}
    )
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(captured)} points)")
