"""``benchmarks/ab.py``: the alternating-pair A/B timing driver."""

import argparse
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "ab", ROOT / "benchmarks" / "ab.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_summarize_reports_wins_medians_iqr_and_best_of(ab):
    base = [{"a": 1.0, "b": 1.0}, {"a": 1.2, "b": 1.0},
            {"a": 1.1, "b": 1.2}, {"a": 1.3, "b": 1.1}]
    change = [{"a": 0.5, "b": 0.6}, {"a": 0.6, "b": 0.5},
              {"a": 2.0, "b": 0.5}, {"a": 0.6, "b": 0.7}]
    s = ab.summarize(base, change)
    assert s["pairs"] == 4
    assert s["wins"] == 3  # pair 3: change 2.5 s vs base 2.3 s
    assert s["base_median"] == pytest.approx(2.25)
    assert s["change_median"] == pytest.approx(1.2)
    assert s["base_iqr"] == pytest.approx(2.325 - 2.15)
    assert s["base_best_of"] == pytest.approx(2.0)
    assert s["change_best_of"] == pytest.approx(1.0)
    assert not s["clear_gain"]  # 3 wins of 4 is under nine in ten


def test_diff_paths_names_each_differing_leaf(ab):
    a = {"engine": {"evictions": 3, "fast": 9}, "hist": [1, 2]}
    b = {"engine": {"evictions": 0, "fast": 9}, "hist": [1, 5]}
    assert list(ab.diff_paths(a, b)) == [
        ("engine.evictions", 3, 0), ("hist[1]", 2, 5),
    ]


def test_compare_runs_both_sides_and_finds_them_identical(ab):
    args = argparse.Namespace(
        workload="scale128_read", seed=1, tiny=True, pairs=2,
        base="(same tree)",
    )
    report = ab.compare(str(ROOT), str(ROOT), args)
    assert report["sim_identical"]
    assert report["sim_diffs"] == {} and report["violations"] == []
    wall = report["metrics"]["wall_s"]
    assert wall["pairs"] == 2 and wall["base_median"] > 0
    assert "wins" in ab.render(report)
    # Each worker reports its own peak memory when its side closes.
    peak = report["peak_rss_mb"]
    assert sorted(peak) == ["base", "change"]
    assert all(10 < mb < 1000 for mb in peak.values())
    assert "peak_rss_mb" in ab.render(report)


def test_render_names_every_differing_field(ab):
    s = ab.summarize([{"a": 1.0}], [{"a": 0.5}])
    report = {
        "workload": "w", "seed": 1, "base": "HEAD~1",
        "metrics": {"wall_s": s}, "sim_identical": False,
        "sim_diffs": {"('p',).engine.evictions": [3, 0]}, "violations": [],
    }
    text = ab.render(report)
    assert "DIFF ('p',).engine.evictions: 3 -> 0" in text
    assert "identical" not in text


def test_render_reports_each_sides_peak_memory(ab):
    s = ab.summarize([{"a": 1.0}], [{"a": 1.0}])
    report = {
        "workload": "w", "seed": 1, "base": "HEAD~1",
        "metrics": {"wall_s": s}, "sim_identical": True,
        "sim_diffs": {}, "violations": [],
        "peak_rss_mb": {"base": 50.25, "change": 35.8},
    }
    assert "peak_rss_mb 50.2 -> 35.8" in ab.render(report)
    report["peak_rss_mb"]["base"] = None  # a worker that died reports none
    assert "peak_rss_mb" not in ab.render(report)
