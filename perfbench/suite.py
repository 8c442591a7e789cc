"""The benchmark's workloads, as lists of independent simulation points.

A *point* is one cluster plus the workload that drives it.  Its
``build`` step (``build_cluster`` and workload construction) is timed
as set-up; its ``run`` step is the measured phase.  Everything the
point simulates is returned as plain data so the gate can hash it.

Workloads (``WORKLOADS``):

``scale128_read``
    128-node RAID-x (10x the 12-node testbed), no cache; open-loop
    Poisson arrivals at 8 req/s per node; 10,000 32 KiB reads with
    ``placement="local"`` (the ``sc`` shard configuration of
    ``repro.bench.experiments._scale_point``).  The lazy RAID-x mirror
    table grows with the cube of the node count and is built in one
    call: 8-12 s at 256 nodes and 3-6 s at 192, where a run would hold
    two to five samples of it and the host's speed swings would spread
    ``wall_s`` by a fifth or more across runs.  At 128 nodes it takes
    about 1 s, a run holds some twenty samples, and RAID-x geometry
    still dominates.
``zipf_mixed_cached``
    12-node RAID-x with a write-back cache (512 blocks/node, destage
    batch 32); open-loop Zipf arrivals at 400 req/s, 70/30
    reads/writes, 32 KiB, round-robin clients over a 64 MB region;
    ends with ``storage.drain()``.
``paper_artifacts``
    the Fig. 5 grid (nfs/raid5/raid10/raidx x 4 ops x 1-12 clients,
    uncached, the points of ``fig5_bandwidth``) plus Andrew at 8
    clients on raidx/raid5/raid10.  Closed loop, barrier-start clients.
    The seed only permutes the order the points run in: every point
    owns its cluster, so simulated results do not depend on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.bench.experiments import (
    FIG5_CLIENTS,
    FIG_ARCHS,
    run_parallel_io,
)
from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.obs.load import collect_load
from repro.units import MB
from repro.workloads.andrew import AndrewBenchmark
from repro.workloads.openloop import OpenLoopWorkload

FIG5_OPS = ("large_read", "large_write", "small_read", "small_write")
ANDREW_ARCHS = ("raidx", "raid5", "raid10")
ANDREW_CLIENTS = 8

#: The paper's headline ratios (HPDC 2000, §5 and Conclusions) that
#: ``paper_err`` scores: name -> ((numerator point), (denominator
#: point), paper value).  Fig. 5 points are (op, arch, clients); Andrew
#: points are ("andrew", arch), compared on total elapsed time.
PAPER_RATIOS = {
    "read_vs_raid5": (("large_read", "raidx", 12),
                      ("large_read", "raid5", 12), 1.5),
    "read_vs_nfs": (("large_read", "raidx", 12),
                    ("large_read", "nfs", 12), 3.7),
    "small_write_vs_raid5": (("small_write", "raidx", 12),
                             ("small_write", "raid5", 12), 3.0),
    "large_write_vs_raid10": (("large_write", "raidx", 12),
                              ("large_write", "raid10", 12), 1.6),
    "andrew_vs_raid10": (("andrew", "raidx"), ("andrew", "raid10"), 0.83),
}


@dataclass
class Point:
    """One simulation: ``build() -> (cluster, driver)``, then
    ``run(driver) -> dict`` of simulated outputs."""

    key: Tuple
    build: Callable[[], Tuple[Any, Any]]
    run: Callable[[Any], Dict]
    #: Logical requests (open loop) or 1 (one experiment point).
    issued: int
    drained: bool = False


def _openloop_run(drain: bool) -> Callable[[Any], Dict]:
    def run(wl: OpenLoopWorkload) -> Dict:
        r = wl.run()
        if drain:
            env = wl.cluster.env
            env.run(env.process(wl.cluster.storage.drain()))
        return {
            "completed": r.completed,
            "failed": r.failed,
            "sim_s": r.duration_s,
            "hist": r.histogram.to_payload(),
        }
    return run


def scale128_read(seed: int, tiny: bool = False) -> List[Point]:
    nodes, n_requests = (16, 400) if tiny else (128, 10_000)

    def build():
        cluster = build_cluster(trojans_cluster(n=nodes), architecture="raidx")
        return cluster, OpenLoopWorkload(
            cluster,
            rate_ops_per_s=8.0 * nodes,
            duration_s=None,
            n_requests=n_requests,
            op="read",
            scenario="poisson",
            placement="local",
            seed=seed,
        )

    return [Point(("scale", nodes), build, _openloop_run(False), n_requests)]


def zipf_mixed_cached(seed: int, tiny: bool = False) -> List[Point]:
    n_requests = 400 if tiny else 8_000

    def build():
        cluster = build_cluster(
            trojans_cluster(n=12),
            architecture="raidx",
            cache=CacheConfig(capacity_blocks=512, destage_batch=32),
        )
        return cluster, OpenLoopWorkload(
            cluster,
            rate_ops_per_s=400.0,
            duration_s=None,
            n_requests=n_requests,
            op="mixed",
            read_fraction=0.7,
            region_bytes=64 * MB,
            scenario="zipf",
            placement="roundrobin",
            seed=seed,
        )

    return [
        Point(("zipf", 12), build, _openloop_run(True), n_requests,
              drained=True)
    ]


def _fig5_point(op: str, arch: str, clients: int) -> Point:
    def build():
        wl = run_parallel_io(arch, clients, op)
        return wl.cluster, wl

    def run(wl) -> Dict:
        r = wl.run()
        return {
            "mb_s": r.aggregate_bandwidth_mb_s,
            "sim_s": r.elapsed,
            "finish": [r.per_client_finish[c] for c in sorted(r.per_client_finish)],
        }

    return Point((op, arch, clients), build, run, 1)


def _andrew_point(arch: str, clients: int = ANDREW_CLIENTS) -> Point:
    def build():
        cluster = build_cluster(trojans_cluster(), architecture=arch)
        return cluster, AndrewBenchmark(cluster, clients)

    def run(bench) -> Dict:
        r = bench.run()
        phases = [r.phase_times[p] for p in r.PHASES]
        return {"total": r.total, "phases": phases, "sim_s": r.total}

    return Point(("andrew", arch), build, run, 1)


def paper_points(tiny: bool = False) -> List[Point]:
    """The Fig. 5 grid plus the Andrew runs, in canonical order."""
    clients = (12,) if tiny else FIG5_CLIENTS
    points = [
        _fig5_point(op, arch, c)
        for op in FIG5_OPS
        for arch in FIG_ARCHS
        for c in clients
    ]
    points += [_andrew_point(a) for a in ANDREW_ARCHS]
    return points


def paper_artifacts(seed: int, tiny: bool = False) -> List[Point]:
    points = paper_points(tiny)
    random.Random(seed).shuffle(points)
    return points


def fidelity_points() -> List[Point]:
    """Only the points the five ``PAPER_RATIOS`` read."""
    keys = []
    for num, den, _paper in PAPER_RATIOS.values():
        for key in (num, den):
            if key not in keys:
                keys.append(key)
    return [
        _andrew_point(k[1]) if k[0] == "andrew" else _fig5_point(*k)
        for k in keys
    ]


WORKLOADS: Dict[str, Callable[..., List[Point]]] = {
    "scale128_read": scale128_read,
    "zipf_mixed_cached": zipf_mixed_cached,
    "paper_artifacts": paper_artifacts,
}


def _figure(key: Tuple, sim: Dict) -> float:
    """The number a paper ratio compares: bandwidth, or Andrew total."""
    return sim["total"] if key[0] == "andrew" else sim["mb_s"]


def paper_ratios(results: Dict[Tuple, Dict]) -> Dict[str, float]:
    """Measured value of every ``PAPER_RATIOS`` entry."""
    return {
        name: _figure(num, results[num]) / _figure(den, results[den])
        for name, (num, den, _paper) in PAPER_RATIOS.items()
    }


def paper_err(ratios: Dict[str, float]) -> float:
    """Mean ``|ln(measured / paper)|`` over the five ratios."""
    return sum(
        abs(math.log(ratios[name] / paper))
        for name, (_n, _d, paper) in PAPER_RATIOS.items()
    ) / len(PAPER_RATIOS)


def paper_orderings(results: Dict[Tuple, Dict]) -> List[str]:
    """EXPERIMENTS.md orderings at 12 clients / 8 Andrew clients that
    do not hold (an empty list when all do)."""
    bad = []
    lw = [
        results[("large_write", a, 12)]["mb_s"]
        for a in ("raidx", "raid10", "raid5", "nfs")
    ]
    if not all(x > y for x, y in zip(lw, lw[1:])):
        bad.append("large write: RAID-x > RAID-10 > RAID-5 > NFS")
    sw = results[("small_write", "raidx", 12)]["mb_s"]
    if not sw > results[("small_write", "raid5", 12)]["mb_s"]:
        bad.append("small write: RAID-x > RAID-5")
    andrew = {a: results[("andrew", a)]["total"] for a in ANDREW_ARCHS}
    if min(andrew, key=andrew.get) != "raidx":
        bad.append("Andrew: RAID-x fastest")
    return bad


def inspect(point: Point, cluster, sim: Dict) -> Tuple[Dict, List[str]]:
    """Read a finished point's counters (untimed) and check its
    invariants.  Returns (simulated outputs, violations)."""
    out = {
        "sim": sim,
        "events": cluster.env.processed_events,
        "load": collect_load(cluster).to_payload(),
    }
    bad: List[str] = []
    if out["events"] == 0:
        bad.append(f"{point.key}: no events simulated")
    engine = getattr(cluster.storage, "engine", None)
    if engine is not None:
        out["engine"] = {
            "fast_submits": engine.fast_submits,
            "phase_submits": engine.phase_submits,
            "fast_hits": engine.fast_hits,
            "fast_fills": engine.fast_fills,
            "ff_plan_evictions": engine.ff_plan_evictions,
        }
    if "completed" in sim:
        if sim["completed"] + sim["failed"] != point.issued:
            bad.append(
                f"{point.key}: completed {sim['completed']} + failed "
                f"{sim['failed']} != issued {point.issued}"
            )
    stage = getattr(engine, "cache", None)
    if stage is not None:
        lost = sum(c.stats.lost for c in stage.caches)
        if lost:
            bad.append(f"{point.key}: {lost} cache blocks lost")
        if point.drained and stage.dirty_or_destaging:
            bad.append(f"{point.key}: dirty cache blocks after drain")
    if point.drained and engine is not None and (
        engine.pending_background_flushes or engine.mirror.dirty_groups
    ):
        bad.append(f"{point.key}: mirror flushes pending after drain")
    return out, bad
