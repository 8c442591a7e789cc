"""Floors + headline claims for the buffer-cache benchmark.

Two layers of guard over ``benchmarks/bench_cache.py``:

* **perf_smoke floors** — events/sec at a tiny scale stays above the
  generous floors in ``BENCH_cache_floors.json`` (~30x below the
  committed BENCH_cache.json measurements), catching catastrophic
  cache-stage hot-path regressions without flaking on slow CI;
* **simulation facts** — the acceptance claims the cache layer makes
  (ISSUE 9): Zipf-hotspot read hit ratio > 0 and strictly growing with
  capacity until the hot set fits, and partial-stripe RMW destages
  issuing measurably fewer disk reads than the cache-off baseline.
  These are deterministic simulation outputs, not timing.

Deselect the timing half with ``pytest -m "not perf_smoke"``.
"""

import importlib.util
import json
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).parent.parent
_BENCH = _ROOT / "benchmarks" / "bench_cache.py"
_FLOORS_FILE = _ROOT / "BENCH_cache_floors.json"


def _load_bench_cache():
    spec = importlib.util.spec_from_file_location("bench_cache", _BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_cache = _load_bench_cache()

_FLOORS_DOC = json.loads(_FLOORS_FILE.read_text())
FLOORS = _FLOORS_DOC["floors"]
SCALE = _FLOORS_DOC["scale"]

def test_floors_cover_every_scenario():
    assert sorted(FLOORS) == sorted(bench_cache.SCENARIOS)


@pytest.mark.perf_smoke
@pytest.mark.parametrize("scenario", sorted(FLOORS))
def test_cache_throughput_floor(scenario):
    stats = bench_cache.measure(scenario, scale=SCALE, repeats=1)
    assert "error" not in stats, stats
    rate = stats["events_per_sec"]
    assert rate > FLOORS[scenario], (
        f"{scenario}: {rate:,.0f} events/sec is below the generous "
        f"{FLOORS[scenario]:,} floor — the cache stage regressed badly"
    )


def test_zipf_hit_ratio_positive_and_reads_reduced():
    _, uncached = bench_cache._zipf_point(None, 1_000)
    _, cached = bench_cache._zipf_point(128, 1_000)
    assert uncached["hit_ratio"] == 0.0
    assert cached["hit_ratio"] > 0
    assert cached["disk_reads"] < uncached["disk_reads"]
    assert cached["lost"] == 0


def test_rmw_preread_reduction():
    _, uncached = bench_cache._rmw_point(False, 500)
    _, cached = bench_cache._rmw_point(True, 500)
    # Cache-off RMW: old-data + old-parity pre-read per partial write.
    assert uncached["reads_per_write"] == pytest.approx(2.0)
    # Absorption drops the old-data read; rewrites of hot blocks fold
    # entirely, so the cached stream pays well under half the reads.
    assert cached["reads_per_write"] < uncached["reads_per_write"] / 1.5


def test_committed_measurements_match_claims():
    """BENCH_cache.json (the committed artifact) must actually show the
    acceptance numbers it exists to report."""
    doc = json.loads((_ROOT / "BENCH_cache.json").read_text())
    ratios = doc["summary"]["hit_ratio_by_capacity"]
    assert all(v > 0 for v in ratios.values())
    ordered = [ratios[k] for k in sorted(ratios, key=int)]
    assert ordered == sorted(ordered)  # bigger cache never hits less
    rmw = doc["summary"]["rmw_reads_per_write"]
    assert rmw["cached"] < rmw["uncached"]
