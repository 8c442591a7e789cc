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
* a sha256 of the canonical ``collect_load`` payload.

Twelve clients keep the fabric's incast model active (its threshold is
six in-flight senders per receive port).  An added ``yield 0`` in a
message hop changes the pop count; a reordered link reservation
changes the times.

The ``replay/...`` points pin the fast path's pop replays the same way
(pops, final time as float hex, span-stream sha256), with the node
fast-forward on and off: the traced and sampled uncached node-FF
scenarios of ``tests/hardware/test_node_fastforward.py`` (lockstep span
synthesis), and the seeded cached-FF runs of
``tests/cluster/test_cache_ff_equivalence.py`` (hit and fill replays)
on raidx, raid0 and raid5, untraced and traced.  The FF on/off suites
compare times and spans only; these points also catch a replay that
adds or drops a pop.

Regenerate (only for an intended change of simulated behaviour)::

    PYTHONPATH=src python -m tests.cluster.test_pop_identity
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.obs.load import collect_load
from repro.units import KiB
from repro.workloads.parallel_io import ParallelIOWorkload
from tests.cluster.test_cache_ff_equivalence import _run, _seeded_ops
from tests.hardware.test_node_fastforward import _run_scenario

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


#: (path, arch, tracing, node_ff): the fast path's replays.
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


def _key(arch: str, workload: str, node_ff: bool) -> str:
    return f"{arch}/{workload}/ff{int(node_ff)}"


def _replay_key(path: str, arch: str, tracing: str, node_ff: bool) -> str:
    return f"replay/{path}/{arch}/{tracing}/ff{int(node_ff)}"


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
        _canonical(collect_load(cluster).to_payload()),
        sort_keys=True, separators=(",", ":"),
    )
    return {
        "processed_events": cluster.env.processed_events,
        "elapsed": result.elapsed.hex(),
        "per_client_finish": [
            result.per_client_finish[c].hex() for c in range(CLIENTS)
        ],
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
        sig, sha, pops = _run(
            node_ff, arch=arch, traced=tracing == "traced",
            ops=_seeded_ops(0xA11D, 40),
        )
        final = sig["final"]
    return {"processed_events": pops, "final": final, "span_sha256": sha}


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


def test_golden_covers_every_point(golden):
    assert set(golden) == {_key(*p) for p in POINTS} | {
        _replay_key(*p) for p in REPLAY_POINTS
    }


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    captured = {_key(*p): run_point(*p) for p in POINTS}
    captured.update(
        {_replay_key(*p): run_replay(*p) for p in REPLAY_POINTS}
    )
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(captured)} points)")
