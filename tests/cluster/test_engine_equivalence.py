"""Golden equivalence: the plan/execute engine vs. the pre-refactor systems.

``golden_equivalence.json`` was captured from the per-system protocol
bodies *before* the plan/execute split (the hand-written
``_read``/``_write``/``_reconstruct_read`` paths).  These tests replay
the same seeded mixed workloads — healthy and single-disk-failed, all
five array architectures plus NFS, with and without locking — through
the shared :class:`~repro.cluster.engine.ExecutionEngine` and require
the results to be **byte-identical**: same request completion times
(exact float hex), same full trace-span stream (hash over every span's
kind/track/start/end/args), same per-disk op counters.

If one of these fails, the engine scheduled a different number or order
of simulator events than the protocol it replaced — a timing regression
even if every test of externally visible behaviour still passes.

Each scenario runs with the node fast-forward on (the default, under
the scenario's bare id) and off (``-ff0``) against the same golden, and
the reduced Fig. 5 / A7 rows of ``benchmarks/determinism_check.py``
must match ``benchmarks/golden_fig5_reduced.txt`` byte for byte on both
legs: the closed form and the event-driven path are one behaviour.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.cluster.systems import DistributedArraySystem
from tests.cluster.equivalence_scenarios import SCENARIOS, run_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden_equivalence.json"
BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "name,arch,build_kw,system_kw,fail_disk,node_ff",
    [
        pytest.param(*s, node_ff, id=s[0] if node_ff else f"{s[0]}-ff0")
        for s in SCENARIOS
        for node_ff in (True, False)
    ],
)
def test_engine_matches_pre_refactor_golden(
    monkeypatch, golden, name, arch, build_kw, system_kw, fail_disk, node_ff
):
    monkeypatch.setattr(DistributedArraySystem, "node_ff", node_ff)
    got = run_scenario(name, arch, build_kw, system_kw, fail_disk)
    want = golden[name]
    # Compare the cheap discriminators first for a readable failure.
    assert got["final_time"] == want["final_time"], "completion time drifted"
    assert got["n_spans"] == want["n_spans"], "span count drifted"
    assert got["requests"] == want["requests"], "request spans drifted"
    assert got["disks"] == want["disks"], "per-disk op counters drifted"
    assert (
        got["span_stream_sha256"] == want["span_stream_sha256"]
    ), "full span stream drifted"
    assert got == want


def test_golden_covers_every_scenario(golden):
    assert set(golden) == {s[0] for s in SCENARIOS}


@pytest.mark.parametrize("node_ff", [False, True], ids=["ff0", "ff1"])
def test_reduced_rows_match_golden(monkeypatch, node_ff):
    spec = importlib.util.spec_from_file_location(
        "determinism_check", BENCHMARKS / "determinism_check.py"
    )
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    monkeypatch.setattr(DistributedArraySystem, "node_ff", node_ff)
    rows = [*check.fig5_rows(), *check.degraded_rows()]
    want = (BENCHMARKS / "golden_fig5_reduced.txt").read_text()
    assert "".join(f"{row}\n" for row in rows) == want
