"""Buffer-cache benchmark: hit-ratio sweep and RMW-absorption payoff.

Measures the :mod:`repro.cache` layer on the workload it exists for —
a Zipf-hotspot open-loop stream whose hot set fits in memory — at
three cache sizes plus a cache-off baseline, and a partial-stripe
RAID-5 write stream where write-back absorption should eliminate most
old-data pre-reads.

Two kinds of figures come out of one run per scenario:

* **simulation facts** (deterministic): read hit ratio, disk read/write
  op counts, destage batches — these are what the cache claims to
  improve, and what ``tests/test_cache_smoke.py`` asserts on;
* **simulator throughput** (wall clock): events/sec pushed through the
  kernel with the cache stage in the request path, floored by
  ``BENCH_cache_floors.json`` like every other hot path.

Run standalone::

    python benchmarks/bench_cache.py             # print a table
    python benchmarks/bench_cache.py --json BENCH_cache.json
    python benchmarks/bench_cache.py --scale 0.25   # quick run
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.units import KiB
from repro.workloads.openloop import OpenLoopWorkload

#: Simulation facts recorded by the most recent run of each scenario
#: (scenario functions return the event count so ``measure`` can time
#: them; the facts ride along here).
RUN_STATS: Dict[str, Dict] = {}

_ZIPF_SIZES = {"small": 32, "medium": 128, "large": 512}


def _zipf_point(
    cache_blocks: Optional[int], requests: int
) -> Tuple[int, Dict]:
    """One Zipf-hotspot open-loop point: mixed 70/30 read/write."""
    cache = (
        CacheConfig(capacity_blocks=cache_blocks, destage_batch=32)
        if cache_blocks
        else None
    )
    cluster = build_cluster(
        trojans_cluster(n=4), architecture="raidx", cache=cache
    )
    OpenLoopWorkload(
        cluster,
        rate_ops_per_s=400.0,
        duration_s=None,
        n_requests=requests,
        op="mixed",
        read_fraction=0.7,
        op_size=32 * KiB,
        scenario="zipf",
        region_bytes=64_000_000,
        placement="roundrobin",
        seed=7,
    ).run()
    cluster.env.run(cluster.env.process(cluster.storage.drain()))
    stats = {
        "cache_blocks": cache_blocks or 0,
        "disk_reads": sum(d.stats.reads for d in cluster.all_disks()),
        "disk_writes": sum(d.stats.writes for d in cluster.all_disks()),
        "hit_ratio": 0.0,
    }
    stage = cluster.storage.engine.cache
    if stage is not None:
        hits = sum(c.stats.hits for c in stage.caches)
        misses = sum(c.stats.misses for c in stage.caches)
        stats["hit_ratio"] = hits / max(1, hits + misses)
        stats["destage_batches"] = sum(
            c.stats.destage_batches for c in stage.caches
        )
        stats["lost"] = sum(c.stats.lost for c in stage.caches)
    return cluster.env.processed_events, stats


def _rmw_point(cached: bool, requests: int) -> Tuple[int, Dict]:
    """Partial-stripe RAID-5 writes: half-block ops, Zipf hot spot.

    Every uncached write pays the old-data + old-parity pre-reads; the
    cached run fills once per cold block, absorbs rewrites, and
    destages with the old-data read dropped (RMW absorption) — disk
    reads per logical write is the figure of merit.
    """
    cache = (
        CacheConfig(capacity_blocks=1024, destage_batch=32)
        if cached
        else None
    )
    cluster = build_cluster(
        trojans_cluster(n=4), architecture="raid5", cache=cache
    )
    OpenLoopWorkload(
        cluster,
        rate_ops_per_s=400.0,
        duration_s=None,
        n_requests=requests,
        op="write",
        op_size=16 * KiB,
        scenario="zipf",
        region_bytes=64_000_000,
        placement="roundrobin",
        seed=7,
    ).run()
    cluster.env.run(cluster.env.process(cluster.storage.drain()))
    stats = {
        "cached": cached,
        "disk_reads": sum(d.stats.reads for d in cluster.all_disks()),
        "disk_writes": sum(d.stats.writes for d in cluster.all_disks()),
        "reads_per_write": (
            sum(d.stats.reads for d in cluster.all_disks()) / requests
        ),
    }
    return cluster.env.processed_events, stats


def _zipf_scenario(name: str, cache_blocks: Optional[int]):
    def run(requests: int = 4_000) -> int:
        events, stats = _zipf_point(cache_blocks, requests)
        RUN_STATS[name] = stats
        return events

    run.__name__ = name
    return run


def _rmw_scenario(name: str, cached: bool):
    def run(requests: int = 2_000) -> int:
        events, stats = _rmw_point(cached, requests)
        RUN_STATS[name] = stats
        return events

    run.__name__ = name
    return run


SCENARIOS: Dict[str, Callable[..., int]] = {
    "zipf_uncached": _zipf_scenario("zipf_uncached", None),
    **{
        f"zipf_cache_{label}": _zipf_scenario(
            f"zipf_cache_{label}", blocks
        )
        for label, blocks in _ZIPF_SIZES.items()
    },
    "rmw_uncached": _rmw_scenario("rmw_uncached", False),
    "rmw_cached": _rmw_scenario("rmw_cached", True),
}


# -- measurement --------------------------------------------------------


def measure(name: str, scale: float = 1.0, repeats: int = 3) -> Dict:
    """Best-of-N wall-clock measurement of one scenario.

    The scenario's simulation facts (hit ratio, disk op counts) are
    merged into the returned dict — they are identical across repeats
    because the simulation is deterministic.
    """
    fn = SCENARIOS[name]
    kwargs = {}
    if scale != 1.0:
        import inspect

        for pname, param in inspect.signature(fn).parameters.items():
            kwargs[pname] = max(1, int(param.default * scale))
    best = float("inf")
    events = 0
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            events = fn(**kwargs)
            dt = time.perf_counter() - t0
            best = min(best, dt)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    out = {
        "events": events,
        "seconds": best,
        "events_per_sec": events / best if best > 0 else 0.0,
        **RUN_STATS.get(name, {}),
    }
    return out


def methodology(repeats: int) -> Dict:
    """How the wall-clock figures were taken, stored beside them."""
    return {
        "timing": (
            f"best of {repeats} wall-clock runs per scenario, "
            "time.perf_counter around the whole scenario (cluster build, "
            "workload, drain), scenarios in sequence in one process"
        ),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "deterministic": (
            "simulation facts (hit ratios, disk op counts) are identical "
            "on every run; only seconds and events_per_sec vary"
        ),
    }


def sweep(scale: float = 1.0, repeats: int = 3) -> Dict:
    """All scenarios plus the two headline summaries."""
    results = {
        name: measure(name, scale=scale, repeats=repeats)
        for name in SCENARIOS
    }
    summary = {
        "hit_ratio_by_capacity": {
            str(results[f"zipf_cache_{label}"].get("cache_blocks")):
                results[f"zipf_cache_{label}"].get("hit_ratio")
            for label in _ZIPF_SIZES
        },
        "rmw_reads_per_write": {
            "uncached": results["rmw_uncached"].get("reads_per_write"),
            "cached": results["rmw_cached"].get("reads_per_write"),
        },
    }
    return {
        "scale": scale,
        "methodology": methodology(repeats),
        "scenarios": results,
        "summary": summary,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", metavar="PATH", default=None)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    doc = sweep(scale=args.scale, repeats=args.repeats)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    w = max(len(n) for n in SCENARIOS)
    for name, r in doc["scenarios"].items():
        if "error" in r:
            print(f"{name:{w}s}  ERROR {r['error']}")
            continue
        extra = ""
        if "hit_ratio" in r:
            extra = f"  hit_ratio={r['hit_ratio']:.4f}"
        if "reads_per_write" in r:
            extra += f"  reads/write={r['reads_per_write']:.3f}"
        print(
            f"{name:{w}s}  {r['events_per_sec']:>12,.0f} events/s"
            f"  reads={r['disk_reads']:>7d}{extra}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
