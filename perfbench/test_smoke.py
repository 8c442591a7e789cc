"""Smoke tests for the benchmark, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

import gate  # noqa: E402
import layers  # noqa: E402
import suite  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", *args]
    if cwd != ROOT:
        cmd[1] = str(Path(cwd) / "perfbench" / "run.py")
    return subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def _result(workload, seed=1, trace=0):
    p = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


# -- layer map ---------------------------------------------------------------
def test_layer_map_covers_every_source_module():
    lmap = layers.LayerMap(str(SRC))
    seen = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = lmap.module_of(str(path))
        assert module is not None, path
        seen.add(lmap.layer_of_module(module))
    assert set(layers.REPORTED) - {"fs"} <= seen | {"other"}
    assert lmap.layer_of_module("repro.cluster.engine") == "cluster.engine"
    assert lmap.layer_of_module("repro.cluster.systems") == "cluster.engine"
    assert lmap.layer_of_module("repro.cluster.transport") == "cluster.cdd"
    assert lmap.layer_of_module("repro.units") == "other"
    with pytest.raises(layers.UnmappedModule):
        lmap.layer_of_module("repro.cluster.brand_new")
    with pytest.raises(layers.UnmappedModule):
        lmap.layer_of_module("repro.brand_new.module")


def test_ledger_shares_sum_to_one_with_other_as_remainder():
    out = layers.ledger({"sim": 1.0, "raid": 2.0, "checkpoint": 0.5}, 4.0)
    shares = [out[f"{n}.share"] for n in layers.REPORTED]
    assert math.isclose(sum(shares), 1.0)
    assert math.isclose(out["other.self_s"], 1.0)
    with pytest.raises(ValueError):
        layers.ledger({"sim": 5.0}, 4.0)


# -- correctness gate --------------------------------------------------------
def test_digest_is_exact_and_order_free():
    a = {("x", 1): {"v": 0.1, "n": 3}, ("y", 2): {"v": [1.5, 2]}}
    b = {("y", 2): {"v": [1.5, 2]}, ("x", 1): {"n": 3, "v": 0.1}}
    assert gate.sim_digest(a) == gate.sim_digest(b)
    c = {("x", 1): {"v": math.nextafter(0.1, 1.0), "n": 3},
         ("y", 2): {"v": [1.5, 2]}}
    assert gate.sim_digest(a) != gate.sim_digest(c)


def test_verdict_flags_every_kind_of_problem():
    assert gate.verdict(["d", "d"], [], {"m": 1.0}) == []
    assert gate.verdict(["d", "e"], [], {})
    assert gate.verdict(["d"], ["lost blocks"], {})
    assert gate.verdict(["d"], [], {"m": float("nan")})


def test_inspect_flags_conservation_and_empty_points():
    (point,) = suite.zipf_mixed_cached(seed=3, tiny=True)
    cluster, driver = point.build()
    sim = point.run(driver)
    _out, bad = suite.inspect(point, cluster, sim)
    assert bad == []
    tampered = dict(sim, completed=sim["completed"] - 1)
    _out, bad = suite.inspect(point, cluster, tampered)
    assert any("issued" in b for b in bad)
    never_run = suite.fidelity_points()[0]
    fresh, _ = never_run.build()
    _out, bad = suite.inspect(never_run, fresh, {"sim_s": 0.0})
    assert any("no events" in b for b in bad)


def test_paper_orderings_detect_a_swap():
    results = {}
    for op in ("large_write", "small_write"):
        for rank, arch in enumerate(("nfs", "raid5", "raid10", "raidx")):
            results[(op, arch, 12)] = {"mb_s": float(rank + 1)}
    for total, arch in ((1.0, "raidx"), (2.0, "raid10"), (3.0, "raid5")):
        results[("andrew", arch)] = {"total": total}
    assert suite.paper_orderings(results) == []
    results[("large_write", "raid5", 12)] = {"mb_s": 9.0}
    results[("andrew", "raid10")] = {"total": 0.5}
    assert len(suite.paper_orderings(results)) == 2


def test_fig5_points_match_the_fig5_artifact():
    from repro.bench.experiments import fig5_bandwidth

    rows = fig5_bandwidth(
        archs=("raid5", "raidx"), client_counts=(2,),
        workloads=("small_write",), cache=False,
    ).rows
    for row in rows:
        point = suite._fig5_point("small_write", row["architecture"], 2)
        _cluster, wl = point.build()
        assert round(point.run(wl)["mb_s"], 2) == row["mb_s"]


def test_paper_err_matches_experiments_md():
    # EXPERIMENTS.md F5 (12 clients) and F6 (32-client Andrew totals).
    recorded = {
        "read_vs_raid5": 49.3 / 50.4,
        "read_vs_nfs": 49.3 / 9.0,
        "small_write_vs_raid5": 19.9 / 9.5,
        "large_write_vs_raid10": 30.9 / 23.4,
        "andrew_vs_raid10": 25.5 / 27.3,
    }
    points = suite.fidelity_points()
    results = {}
    for p in points:
        _cluster, driver = p.build()
        results[p.key] = p.run(driver)
    measured = suite.paper_err(suite.paper_ratios(results))
    assert abs(measured - suite.paper_err(recorded)) < 0.02
    assert 0.27 < measured < 0.31


# -- the driver, end to end --------------------------------------------------
@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
def test_workload_runs_correct_with_every_declared_metric(workload):
    res, detail = _result(workload, trace=0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in res["metrics"].values())

    traced, tdetail = _result(workload, trace=1)
    assert traced["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared
    assert tdetail["sim_digest"] == detail["sim_digest"]
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert math.isclose(
        sum(m[f"{n}.share"] for n in layers.REPORTED), 1.0, rel_tol=1e-9
    )
    cached = workload == "zipf_mixed_cached"
    assert (m["cluster.cache_stage.self_s"] > 0) == cached
    assert (m["cache.hit_ratio"] > 0) == cached
    assert (m["fs.self_s"] > 0) == (workload == "paper_artifacts")


def test_same_seed_same_digest_and_paper_grid_is_seed_free():
    _, a = _result("zipf_mixed_cached", seed=5)
    _, b = _result("zipf_mixed_cached", seed=5)
    _, c = _result("zipf_mixed_cached", seed=6)
    assert a["sim_digest"] == b["sim_digest"] != c["sim_digest"]
    _, p = _result("paper_artifacts", seed=5)
    _, q = _result("paper_artifacts", seed=6)
    assert p["sim_digest"] == q["sim_digest"]


def test_refuses_non_default_simulator_switches():
    env = dict(os.environ, REPRO_NODE_FF="0")
    p = _bench("--workload", "zipf_mixed_cached", "--seed", "1",
               "--seconds", "0", "--trace", "0", "--tiny", env=env)
    assert p.returncode != 0 and p.stdout == ""


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    p = _bench("--workload", "zipf_mixed_cached", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0 and p.stdout == ""
