"""Scale-sweep smoke: sharding determinism, cache resume, perf floors.

Runs ``repro.bench.experiments.run_scale`` at a tiny scale and pins the
three contracts CI cares about:

* the sharded runner is deterministic — serial and pooled runs of the
  same points produce byte-identical rows (``_scale_point`` returns
  only simulation-pure metrics, no wall-clock), up to a 256-node point;
* shards compose with the content-addressed sweep cache — a rerun
  simulates nothing, and raising the replica count re-simulates only
  the new seeds;
* fast-forwarded open-loop throughput stays above the generous floors
  committed in ``BENCH_scale_floors.json`` (~20-50x below the numbers
  in ``BENCH_scale.json``, so it only catches catastrophic hot-path
  regressions, never slow CI hardware).

Deselect the timing test with ``pytest -m "not perf_smoke"``.
"""

import json
import pathlib
import time

import pytest

from repro.bench.cache import SweepCache
from repro.bench.experiments import _scale_point, run_scale

_ROOT = pathlib.Path(__file__).parent.parent
_FLOORS_FILE = _ROOT / "BENCH_scale_floors.json"

# Tiny but representative: two cluster sizes, sharded arrivals.
NODES = [4, 8]
REQUESTS = 1200
SHARDS = 3


def _rows(result):
    return json.dumps(result.rows, sort_keys=True)


def test_sharded_sweep_is_deterministic_across_workers():
    serial = run_scale(NODES, REQUESTS, shards=SHARDS, cache=False)
    pooled = run_scale(
        NODES, REQUESTS, shards=SHARDS, cache=False, workers=2
    )
    again = run_scale(NODES, REQUESTS, shards=SHARDS, cache=False)
    assert _rows(serial) == _rows(pooled) == _rows(again)


def test_shards_have_independent_arrival_streams():
    a = _scale_point(n_nodes=4, n_requests=400, seed=0)
    b = _scale_point(n_nodes=4, n_requests=400, seed=1)
    assert a["completed"] == b["completed"] == 400
    assert a["hist"] != b["hist"]  # different seeds, different latencies


def test_256_node_point_is_deterministic():
    # The sweep's largest point, at a reduced request count: RAID-x
    # geometry is closed form, so 256 nodes cost no table build.
    a = _scale_point(n_nodes=256, n_requests=2000, seed=0)
    b = _scale_point(n_nodes=256, n_requests=2000, seed=0)
    assert a["completed"] == 2000 and a["failed"] == 0
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_scale_rows_expose_fast_forward_hits():
    row = _scale_point(n_nodes=4, n_requests=400, seed=0)
    # The headline scenario is the conflict-free regime: the analytic
    # node fast-forward must serve the overwhelming majority.
    assert row["fast_submits"] > 0.8 * row["completed"]
    assert row["events"] < 6 * row["completed"]


def test_sharded_sweep_composes_with_cache(tmp_path):
    sc = SweepCache(root=tmp_path / "cache", fingerprint="fp-scale")
    first = run_scale(NODES, REQUESTS, shards=SHARDS, cache=sc)
    assert sc.stores == len(NODES) * SHARDS and sc.hits == 0

    second = run_scale(NODES, REQUESTS, shards=SHARDS, cache=sc)
    assert sc.stores == len(NODES) * SHARDS  # zero new simulations
    assert sc.hits == len(NODES) * SHARDS
    assert _rows(second) == _rows(first)

    # A replica bump re-simulates only the new seeds; per-shard request
    # counts must match for the old shards to be cache hits.
    run_scale(
        NODES,
        REQUESTS // SHARDS * (SHARDS + 1),
        shards=SHARDS + 1,
        cache=sc,
    )
    assert sc.stores == len(NODES) * (SHARDS + 1)
    assert sc.hits == 2 * len(NODES) * SHARDS


def test_floors_file_matches_benchmark():
    doc = json.loads(_FLOORS_FILE.read_text())
    assert set(doc["floors"]) == {"requests_per_sec", "events_per_sec"}


@pytest.mark.perf_smoke
def test_scale_throughput_floor():
    doc = json.loads(_FLOORS_FILE.read_text())
    n_requests = doc["scale"]
    t0 = time.perf_counter()
    row = _scale_point(n_nodes=12, n_requests=n_requests, seed=0)
    wall = time.perf_counter() - t0
    req_rate = row["completed"] / wall
    ev_rate = row["events"] / wall
    assert req_rate > doc["floors"]["requests_per_sec"], (
        f"{req_rate:,.0f} requests/sec is below the generous "
        f"{doc['floors']['requests_per_sec']:,} floor — the open-loop "
        f"fast path regressed badly"
    )
    assert ev_rate > doc["floors"]["events_per_sec"]
