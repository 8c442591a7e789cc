"""Generous-floor throughput guards for the simulation kernel.

Runs the ``benchmarks/bench_kernel.py`` scenarios at a tiny scale and
asserts events/sec stays above the floors committed in
``BENCH_kernel_floors.json`` — set ~20-50x below the numbers measured
on the development machine (see BENCH_kernel.json).  The point is to
catch *catastrophic* hot-path regressions (an accidental O(n) scan, a
debug hook left on) without ever flaking on slow CI hardware.  Keeping
the floors in a committed file beside the measurements makes a floor
bump an explicit, reviewable change.

Deselect with ``pytest -m "not perf_smoke"``.
"""

import gc
import importlib.util
import json
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).parent.parent
_BENCH = _ROOT / "benchmarks" / "bench_kernel.py"
_FLOORS_FILE = _ROOT / "BENCH_kernel_floors.json"


def _load_bench_kernel():
    spec = importlib.util.spec_from_file_location("bench_kernel", _BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_kernel = _load_bench_kernel()

_FLOORS_DOC = json.loads(_FLOORS_FILE.read_text())
FLOORS = _FLOORS_DOC["floors"]
SCALE = _FLOORS_DOC["scale"]


def test_floors_cover_every_scenario():
    # A new scenario must ship with a floor (and vice versa), so the
    # guard can't silently skip the path it was added to protect.
    assert sorted(FLOORS) == sorted(bench_kernel.SCENARIOS)


@pytest.mark.perf_smoke
@pytest.mark.parametrize("scenario", sorted(FLOORS))
def test_kernel_throughput_floor(scenario):
    # Best of 3 from a collected heap, like BENCH_kernel.json's best of
    # 7: one sample at this scale lasts milliseconds, so a single stall
    # from whatever else shares the host can sink it below the floor.
    gc.collect()
    stats = bench_kernel.measure(scenario, scale=SCALE, repeats=3)
    assert "error" not in stats, stats
    rate = stats["events_per_sec"]
    assert rate > FLOORS[scenario], (
        f"{scenario}: {rate:,.0f} events/sec is below the generous "
        f"{FLOORS[scenario]:,} floor — the kernel hot path regressed badly"
    )
