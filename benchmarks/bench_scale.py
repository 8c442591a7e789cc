"""Scale benchmark: million-request open-loop sweeps, FF on vs off.

Measures the wall-clock cost of the scale sweep's shards
(:func:`repro.bench.experiments._scale_point` — local-placement
open-loop reads on RAID-x, the conflict-free regime) at 12/64/256
nodes, with the node-level analytic fast-forward enabled and disabled.
The simulation results are byte-identical either way (pinned by
``tests/hardware/test_node_fastforward.py``); what changes is how many
heap events and process frames each request costs, and therefore the
requests/sec and events/sec the host pushes through.

``speedup`` is the requests/sec ratio (fast-forward over event-driven
baseline).  Both sides run the same number of requests by default;
``--baseline-requests`` shortens the baseline for quick looks only.

Run standalone::

    python benchmarks/bench_scale.py                    # full (minutes)
    python benchmarks/bench_scale.py --requests 40000   # quick run
    python benchmarks/bench_scale.py --json BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, Optional

from repro.bench.experiments import (
    SCALE_NODES,
    _scale_point,
    reduce_scale_shards,
)
from repro.cluster.systems import DistributedArraySystem


def measure_point(
    n_nodes: int,
    n_requests: int,
    shards: int = 4,
    node_ff: bool = True,
    base_seed: int = 0,
) -> Dict:
    """Run one scale point's shards serially; time the whole batch.

    Serial in-process execution keeps the timing honest (no pool
    startup or IPC in the measured window); the sharded runner's
    determinism is asserted separately by the scale-smoke test.
    ``node_ff`` is set on the class: each shard builds its own system.
    """
    per_shard = max(1, n_requests // max(1, shards))
    old = DistributedArraySystem.node_ff
    DistributedArraySystem.node_ff = node_ff
    try:
        t0 = time.perf_counter()
        rows = [
            _scale_point(
                n_nodes=n_nodes, n_requests=per_shard, seed=base_seed + s
            )
            for s in range(max(1, shards))
        ]
        wall = time.perf_counter() - t0
    finally:
        DistributedArraySystem.node_ff = old
    red = reduce_scale_shards(rows)
    red.pop("hist")  # distribution is summarized by mean/p99 here
    red.pop("load")  # per-disk counters: `python -m repro.bench report`
    red["wall_s"] = round(wall, 3)
    red["requests_per_sec"] = round(red["completed"] / wall)
    red["events_per_sec"] = round(red["events"] / wall)
    red["mean_ms"] = round(red["mean_ms"], 4)
    red["p99_ms"] = round(red["p99_ms"], 4)
    red["sim_s"] = round(red["sim_s"], 3)
    return red


def run_all(
    n_requests: int = 1_000_000,
    baseline_requests: Optional[int] = None,
    shards: int = 4,
    node_counts=SCALE_NODES,
) -> Dict[str, Dict]:
    """FF-on and FF-off measurements for every scale point."""
    if baseline_requests is None:
        baseline_requests = n_requests
    out: Dict[str, Dict] = {}
    for n in node_counts:
        ff = measure_point(n, n_requests, shards, node_ff=True)
        base = measure_point(n, baseline_requests, shards, node_ff=False)
        out[str(n)] = {
            "fast_forward": ff,
            "baseline": base,
            "speedup": round(
                ff["requests_per_sec"] / base["requests_per_sec"], 2
            ),
            "events_per_request_ff": round(
                ff["events"] / ff["completed"], 2
            ),
            "events_per_request_base": round(
                base["events"] / base["completed"], 2
            ),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write results as JSON")
    parser.add_argument("--requests", type=int, default=1_000_000,
                        help="requests per scale point (fast-forward run)")
    parser.add_argument("--baseline-requests", type=int, default=None,
                        help="requests for the event-driven baseline "
                        "(default: same as --requests)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--nodes", type=int, nargs="*", default=None,
                        help="node counts (default: 12 64 256)")
    args = parser.parse_args(argv)

    nodes = tuple(args.nodes) if args.nodes else SCALE_NODES
    results = run_all(
        n_requests=args.requests,
        baseline_requests=args.baseline_requests,
        shards=args.shards,
        node_counts=nodes,
    )
    print(f"{'nodes':>5}  {'mode':<12} {'requests':>9} {'req/s':>8} "
          f"{'events/s':>9} {'ev/req':>6} {'wall s':>8}")
    for n, r in results.items():
        for mode, key in (("fast-forward", "fast_forward"),
                          ("baseline", "baseline")):
            m = r[key]
            print(f"{n:>5}  {mode:<12} {m['completed']:>9} "
                  f"{m['requests_per_sec']:>8} {m['events_per_sec']:>9} "
                  f"{m['events'] / m['completed']:>6.2f} "
                  f"{m['wall_s']:>8.2f}")
        print(f"{'':>5}  speedup {r['speedup']}x")

    if args.json:
        baseline = args.baseline_requests or args.requests
        payload = {
            "python": sys.version.split()[0],
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "requests": args.requests,
            "baseline_requests": baseline,
            "shards": args.shards,
            "methodology": (
                f"One host, one session. Per node count: the fast-forward "
                f"run ({args.requests} requests), then the event-driven "
                f"baseline (node fast-forward off in-process, {baseline} "
                f"requests), each as {args.shards} serial _scale_point "
                f"shards with seeds 0..{args.shards - 1}. wall_s times "
                f"the whole batch, cluster construction and arrival "
                f"generation included; requests_per_sec = completed / "
                f"wall_s. Single run per cell, no repetition: compare "
                f"cells of one file only, since a shared host's speed "
                f"can drift by tens of percent between sessions."
            ),
            "points": results,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[written {args.json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
