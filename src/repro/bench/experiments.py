"""Canned experiment definitions — one per paper table/figure.

Each ``run_*`` function regenerates the rows/series of its artifact and
returns an :class:`~repro.bench.harness.ExperimentResult` (or a small
dataclass) that the ``benchmarks/`` scripts print and assert on.  The
experiment↔module map lives in DESIGN.md §4.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.peak import ARCH_ORDER, FORMULAS, PeakModel, peak_table
from repro.analysis.report import render_series, render_table
from repro.analysis.scalability import improvement_factor
from repro.bench.harness import ExperimentResult, sweep
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.obs.load import collect_load
from repro.units import MB, MS
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig, AndrewResult
from repro.workloads.parallel_io import (
    large_read,
    large_write,
    small_read,
    small_write,
)

#: The four storage subsystems of Figs. 5/6.
FIG_ARCHS = ("nfs", "raid5", "raid10", "raidx")
#: Client counts swept in Fig. 5 (the Trojans cluster had 12 nodes).
FIG5_CLIENTS = (1, 2, 4, 8, 12)
#: Client counts swept in Fig. 6 (up to 32 Andrew clients).
FIG6_CLIENTS = (1, 4, 8, 16, 32)

_WORKLOADS = {
    "large_read": large_read,
    "large_write": large_write,
    "small_read": small_read,
    "small_write": small_write,
}


def run_parallel_io(
    architecture: str,
    clients: int,
    workload: str,
    n: int = 12,
    k: int = 1,
    **kw,
):
    """Build one Fig.-5 measurement point; returns the (unrun) workload."""
    cluster = build_cluster(
        trojans_cluster(n=n, k=k), architecture=architecture
    )
    maker = _WORKLOADS[workload]
    return maker(cluster, clients, **kw)


def _fig5_point(architecture: str, clients: int, workload: str):
    """One Fig.-5 cell (module-level so parallel sweeps can pickle it)."""
    wl = run_parallel_io(architecture, clients, workload)
    r = wl.run()
    return {"mb_s": round(r.aggregate_bandwidth_mb_s, 2)}


def fig5_bandwidth(
    archs: Sequence[str] = FIG_ARCHS,
    client_counts: Sequence[int] = FIG5_CLIENTS,
    workloads: Sequence[str] = tuple(_WORKLOADS),
    workers: Optional[int] = None,
    cache: bool = True,
) -> ExperimentResult:
    """Fig. 5: aggregate bandwidth vs clients for each op × architecture.

    ``workers`` fans the grid points out over a process pool; the rows
    are identical to a serial run (see :func:`repro.bench.harness.sweep`).
    Rows are served from the content-addressed sweep cache when the
    simulator source is unchanged (``cache=False``, ``--no-cache``, or
    ``REPRO_BENCH_CACHE=0`` to disable).
    """
    return sweep(
        "fig5_bandwidth",
        _fig5_point,
        {
            "workload": list(workloads),
            "architecture": list(archs),
            "clients": list(client_counts),
        },
        workers=workers,
        cache=cache,
    )


def render_fig5(result: ExperimentResult) -> str:
    """Print Fig. 5 as four series tables (one per panel)."""
    chunks = []
    for wl in dict.fromkeys(result.column("workload")):
        sub = result.filter(workload=wl)
        series = sub.pivot("architecture", "clients", "mb_s")
        xs = sorted({r["clients"] for r in sub.rows})
        chunks.append(
            render_series(
                "clients",
                xs,
                {a: [series[a].get(x) for x in xs] for a in series},
                title=f"Fig.5 {wl} — aggregate MB/s",
            )
        )
    return "\n\n".join(chunks)


def table3_improvement(
    archs: Sequence[str] = FIG_ARCHS,
    endpoints: Sequence[int] = (1, 12),
) -> ExperimentResult:
    """Table 3: bandwidth at 1 and 12 clients + improvement factor."""
    lo, hi = endpoints
    result = ExperimentResult(
        "table3",
        ["architecture", "operation"],
        [f"bw_{lo}cl", f"bw_{hi}cl", "improvement"],
    )
    for arch in archs:
        for wl in ("large_read", "large_write", "small_write"):
            b_lo = run_parallel_io(arch, lo, wl).run()
            b_hi = run_parallel_io(arch, hi, wl).run()
            lo_bw = b_lo.aggregate_bandwidth_mb_s
            hi_bw = b_hi.aggregate_bandwidth_mb_s
            result.add(
                {"architecture": arch, "operation": wl},
                {
                    f"bw_{lo}cl": round(lo_bw, 2),
                    f"bw_{hi}cl": round(hi_bw, 2),
                    "improvement": round(
                        improvement_factor(lo_bw, hi_bw), 2
                    ),
                },
            )
    return result


def fig6_andrew(
    archs: Sequence[str] = FIG_ARCHS,
    client_counts: Sequence[int] = FIG6_CLIENTS,
    andrew_config: Optional[AndrewConfig] = None,
) -> ExperimentResult:
    """Fig. 6: Andrew benchmark per-phase elapsed times."""
    result = ExperimentResult(
        "fig6_andrew",
        ["architecture", "clients"],
        list(AndrewResult.PHASES) + ["total"],
    )
    for arch in archs:
        for ncl in client_counts:
            cluster = build_cluster(trojans_cluster(), architecture=arch)
            r = AndrewBenchmark(cluster, ncl, config=andrew_config).run()
            metrics = {
                p: round(r.phase_times[p], 3) for p in AndrewResult.PHASES
            }
            metrics["total"] = round(r.total, 3)
            result.add({"architecture": arch, "clients": ncl}, metrics)
    return result


def fig7_checkpoint(
    schemes: Sequence = (
        ("parallel", None),
        ("striped_staggered", 2),
        ("striped_staggered", 3),
        ("striped_staggered", 4),
        ("staggered", None),
    ),
    processes: int = 12,
    state_bytes: int = 8 * MB,
    n: int = 12,
    k: int = 1,
) -> ExperimentResult:
    """Fig. 7: checkpoint schedules — epoch time vs per-process overhead.

    Reproduces the C/S trade-off: parallel minimizes the epoch wall
    clock but stretches every process's own checkpoint write (C);
    staggering shortens C (writes run uncontended) at the price of
    waiting (S).  Also reports recovery times from the local mirror
    (transient) vs striped reads (permanent) on RAID-x.
    """
    from repro.checkpoint import CheckpointConfig, CheckpointRun, recover

    result = ExperimentResult(
        "fig7_checkpoint",
        ["scheme", "groups"],
        [
            "epoch_s",
            "sync_ms",
            "mean_C_s",
            "max_C_s",
            "agg_mb_s",
            "recov_transient_ms",
            "recov_permanent_ms",
        ],
    )
    for scheme, groups in schemes:
        cluster = build_cluster(
            trojans_cluster(n=n, k=k), architecture="raidx"
        )
        cfg = CheckpointConfig(
            processes=processes,
            state_bytes=state_bytes,
            scheme=scheme,
            stagger_groups=groups,
        )
        run = CheckpointRun(cluster, cfg)
        r = run.run()
        cluster.env.run(cluster.env.process(cluster.storage.drain()))
        writes = list(r.per_process_write.values())
        rec_t = recover(run, 1, "transient")
        rec_p = recover(run, 1, "permanent")
        result.add(
            {"scheme": scheme, "groups": groups or 1},
            {
                "epoch_s": round(r.total_time, 3),
                "sync_ms": round(r.sync_overhead / MS, 2),
                "mean_C_s": round(sum(writes) / len(writes), 3),
                "max_C_s": round(max(writes), 3),
                "agg_mb_s": round(r.aggregate_bandwidth_mb_s, 1),
                "recov_transient_ms": round(rec_t.elapsed / MS, 1),
                "recov_permanent_ms": round(rec_p.elapsed / MS, 1),
            },
        )
    return result


def table2_peak(
    n: int = 12,
    B: float = 10.0,
    m: int = 64,
    R: float = 3.2 * MS,
    W: float = 3.2 * MS,
) -> str:
    """Table 2: the closed-form model, values + formulas."""
    model = PeakModel(n=n, B=B, m=m, R=R, W=W)
    table = peak_table(model)
    indicators = list(next(iter(table.values())))
    rows = []
    for ind in indicators:
        row: List = [ind]
        for arch in ARCH_ORDER:
            row.append(f"{FORMULAS[arch][ind]} = {table[arch][ind]:.4g}")
        rows.append(row)
    return render_table(
        ["indicator"] + list(ARCH_ORDER),
        rows,
        title=f"Table 2 (n={n}, B={B} MB/s, m={m} blocks)",
    )


def fig1_layout_maps() -> str:
    """Fig. 1: OSM vs chained declustering placement over 4 disks."""
    from repro.raid import make_layout

    out = []
    for name in ("raidx", "chained"):
        lay = make_layout(
            name, n_disks=4, block_size=1, disk_capacity=8, stripe_width=4
        )
        lay.verify_invariants(lay.data_blocks)
        out.append(f"--- {name} (Fig. 1{'a' if name == 'raidx' else 'b'}) ---")
        out.append(lay.placement_map(12))
    return "\n".join(out)


def fig3_nk_map(n: int = 4, k: int = 3) -> str:
    """Fig. 3: the n×k orthogonal striping and mirroring array."""
    from repro.raid import make_layout

    lay = make_layout(
        "raidx",
        n_disks=n * k,
        block_size=1,
        disk_capacity=8,
        stripe_width=n,
    )
    lay.verify_invariants(lay.data_blocks)
    header = (
        f"Fig. 3: {n}x{k} RAID-x — stripe groups of {n} blocks, "
        f"images clustered per disk group"
    )
    return header + "\n" + lay.placement_map(2 * n * k)


def headline_claims() -> Dict[str, float]:
    """Conclusions' headline ratios, re-measured on the simulator.

    * parallel-read bandwidth of RAID-x vs RAID-5 and vs NFS (12 clients);
    * small-write bandwidth of RAID-x vs RAID-5 (12 clients);
    * Andrew total elapsed: RAID-x vs the RAID-5/RAID-10 mean.
    """
    lr = {
        a: run_parallel_io(a, 12, "large_read").run()
        .aggregate_bandwidth_mb_s
        for a in ("raidx", "raid5", "nfs")
    }
    sw = {
        a: run_parallel_io(a, 12, "small_write").run()
        .aggregate_bandwidth_mb_s
        for a in ("raidx", "raid5")
    }
    andrew = {}
    for a in ("raidx", "raid5", "raid10"):
        cluster = build_cluster(trojans_cluster(), architecture=a)
        andrew[a] = AndrewBenchmark(cluster, 8).run().total
    return {
        "read_vs_raid5": lr["raidx"] / lr["raid5"],
        "read_vs_nfs": lr["raidx"] / lr["nfs"],
        "small_write_vs_raid5": sw["raidx"] / sw["raid5"],
        "andrew_cut_vs_raid10": 1.0 - andrew["raidx"] / andrew["raid10"],
        "andrew_cut_vs_raid5": 1.0 - andrew["raidx"] / andrew["raid5"],
        "raidx_read_mb_s": lr["raidx"],
        "raidx_small_write_mb_s": sw["raidx"],
    }


#: Node counts swept by the scale experiment (clusters well past the
#: paper's 12-node Trojans testbed).
SCALE_NODES = (12, 64, 256)


def _scale_point(
    n_nodes: int,
    n_requests: int,
    seed: int,
    architecture: str = "raidx",
    rate_per_node: float = 8.0,
    op: str = "read",
    scenario: str = "poisson",
):
    """One open-loop scale shard — **simulation-deterministic** metrics.

    Returns only quantities that are a pure function of (point, seed):
    counts, simulated time, event totals, and the latency histogram
    payload.  Wall-clock throughput is measured by the callers that own
    timing (``benchmarks/bench_scale.py``, the scale-smoke test) so CI
    can compare two runs of this function byte for byte.

    The default scenario is the conflict-free regime the node
    fast-forward targets: local-placement reads at low per-node load on
    a healthy array, untraced.
    """
    from repro.workloads.openloop import OpenLoopWorkload

    cluster = build_cluster(
        trojans_cluster(n=n_nodes), architecture=architecture
    )
    wl = OpenLoopWorkload(
        cluster,
        rate_ops_per_s=rate_per_node * n_nodes,
        duration_s=None,
        n_requests=n_requests,
        op=op,
        scenario=scenario,
        placement="local",
        seed=seed,
    )
    r = wl.run()
    h = r.histogram
    return {
        "completed": r.completed,
        "failed": r.failed,
        "events": cluster.env.processed_events,
        "fast_submits": cluster.storage.engine.fast_submits,
        "phase_submits": cluster.storage.engine.phase_submits,
        "sim_s": r.duration_s,
        "mean_ms": r.mean_latency() * 1e3,
        "p50_ms": h.percentile(50) * 1e3,
        "p95_ms": h.percentile(95) * 1e3,
        "p99_ms": r.p99_latency() * 1e3,
        "hist": h.to_payload(),
        "load": collect_load(cluster).to_payload(),
    }


def reduce_scale_shards(shards: List[Dict]) -> Dict:
    """Fold per-seed shard rows into one scale-point row.

    Counts and event totals add; the merged histogram re-derives the
    latency quantiles over all shards' samples, and the per-shard load
    registries merge (counters add, histograms fold) so the reduced row
    carries cluster-wide utilization and its per-disk skew.
    Deterministic: shard rows arrive in seed order, so merged float
    totals are byte-identical for any worker count.
    """
    from repro.obs.load import utilization_skew
    from repro.obs.metrics import LogHistogram, MetricsRegistry

    hist = LogHistogram()
    load = MetricsRegistry()
    for s in shards:
        hist.merge(LogHistogram.from_payload(s["hist"]))
        load.merge(MetricsRegistry.from_payload(s["load"]))
    return {
        "completed": sum(s["completed"] for s in shards),
        "failed": sum(s["failed"] for s in shards),
        "events": sum(s["events"] for s in shards),
        "fast_submits": sum(s["fast_submits"] for s in shards),
        "phase_submits": sum(s.get("phase_submits", 0) for s in shards),
        "sim_s": sum(s["sim_s"] for s in shards),
        "mean_ms": hist.mean * 1e3,
        "p50_ms": hist.percentile(50) * 1e3,
        "p95_ms": hist.percentile(95) * 1e3,
        "p99_ms": hist.percentile(99) * 1e3,
        "util_skew": utilization_skew(load),
        "hist": hist.to_payload(),
        "load": load.to_payload(),
    }


def run_scale(
    node_counts: Sequence[int] = SCALE_NODES,
    n_requests: int = 1_000_000,
    shards: int = 4,
    workers: Optional[int] = None,
    cache: bool = True,
    base_seed: int = 0,
) -> ExperimentResult:
    """The scale sweep: open-loop latency at 12/64/256 nodes.

    ``n_requests`` is the total per scale point, split evenly over
    ``shards`` independent arrival-seed replicas (seed ``base_seed + i``
    for shard ``i``); ``workers`` fans the shards out over a process
    pool.  Every shard is cached individually, so interrupted or resumed
    sweeps re-simulate only the missing shards — and the reduced rows
    are identical for any worker count.
    """
    per_shard = max(1, n_requests // max(1, shards))
    return sweep(
        "scale_openloop",
        _scale_point,
        {"n_nodes": list(node_counts), "n_requests": [per_shard]},
        workers=workers,
        cache=cache,
        replicas=max(1, shards),
        seed_key="seed",
        base_seed=base_seed,
        reduce=reduce_scale_shards,
    )


def render_scale(result: ExperimentResult) -> str:
    """The scale sweep as a table (histogram/load payloads elided)."""
    headers = [
        "n_nodes", "completed", "failed", "fast_submits", "phase_submits",
        "events", "sim_s", "p50_ms", "p95_ms", "p99_ms", "util_skew",
    ]
    rows = []
    for r in result.rows:
        row = dict(r)
        row["sim_s"] = round(row["sim_s"], 2)
        for k in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            if k in row:
                row[k] = round(row[k], 3)
        if "util_skew" in row:
            row["util_skew"] = round(row["util_skew"], 4)
        rows.append([row.get(h) for h in headers])
    return render_table(
        headers, rows, title="Scale sweep — open-loop local reads"
    )


def scale_report(
    workers: Optional[int] = None,
    shards: int = 4,
    sample_rate: float = 0.05,
    sample_seed: int = 0,
    n_requests: int = 1_000_000,
    node_counts: Sequence[int] = SCALE_NODES,
) -> Dict:
    """Artifact ``report``: the merged-telemetry health summary.

    Three sections, all from data the observability plane already
    collects at scale:

    * per-scale-point latency quantiles from the shard-merged
      log-histograms (exact counts, ±9% bucketed quantiles);
    * per-disk utilization spread and queue-depth high-water from the
      shard-merged load registries — the balance check for RAID-x's
      orthogonal striping (``skew`` is max/mean utilization);
    * bottleneck attribution for one 12-node point from its load
      registry, run under a deterministically *sampled* trace (rate
      ``sample_rate``) — the attribution reads the counters, so it is
      the same at any sample rate or with no trace at all;
    * per-node buffer-cache hit ratios from one cache-enabled
      Zipf-hotspot point — the ratios are derived at report time from
      the shard-mergeable ``load.nodeN.cache.*`` counters.
    """
    from repro.analysis.bottleneck import bottleneck, usage_table
    from repro.cache import CacheConfig
    from repro.obs import runtime as obs_runtime
    from repro.obs.load import (
        CACHE_DIRTY_HW,
        QUEUE_DEPTH_HW,
        cache_hit_ratios,
        disk_utilizations,
        utilization_skew,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.workloads.openloop import OpenLoopWorkload

    result = run_scale(
        node_counts=node_counts,
        n_requests=n_requests,
        workers=workers,
        shards=shards,
    )
    points = []
    for row in result.rows:
        load = MetricsRegistry.from_payload(row["load"])
        utils = sorted(disk_utilizations(load).values())
        qd = load.histogram(QUEUE_DEPTH_HW)
        points.append(
            {
                "n_nodes": row["n_nodes"],
                "completed": row["completed"],
                "failed": row["failed"],
                "fast_submits": row["fast_submits"],
                "phase_submits": row["phase_submits"],
                "latency_ms": {
                    "mean": row["mean_ms"],
                    "p50": row["p50_ms"],
                    "p95": row["p95_ms"],
                    "p99": row["p99_ms"],
                },
                "disk_util": {
                    "min": utils[0] if utils else None,
                    "mean": sum(utils) / len(utils) if utils else None,
                    "max": utils[-1] if utils else None,
                    "skew": utilization_skew(load),
                },
                "queue_depth_hw": {"max": qd.max, "p95": qd.percentile(95)},
            }
        )
    with obs_runtime.tracing(
        sample_rate=sample_rate, sample_seed=sample_seed
    ) as tracer:
        cluster = build_cluster(trojans_cluster(n=12), architecture="raidx")
        OpenLoopWorkload(
            cluster,
            rate_ops_per_s=96.0,
            duration_s=None,
            n_requests=4000,
            op="read",
            scenario="poisson",
            placement="local",
            seed=0,
        ).run()
        bn = bottleneck(cluster)
        attribution = {
            "sample_rate": sample_rate,
            "sample_seed": sample_seed,
            "n_spans": len(tracer),
            "usage": usage_table(cluster),
            "bottleneck": {
                "name": bn.name,
                "mean": round(bn.mean, 3),
                "peak": round(bn.peak, 3),
            },
        }
    cache_cfg = CacheConfig(capacity_blocks=512)
    cluster = build_cluster(
        trojans_cluster(n=12), architecture="raidx", cache=cache_cfg
    )
    OpenLoopWorkload(
        cluster,
        rate_ops_per_s=96.0,
        duration_s=None,
        n_requests=4000,
        op="read",
        scenario="zipf",
        placement="local",
        seed=0,
    ).run()
    cluster.env.run(cluster.env.process(cluster.storage.drain()))
    load = collect_load(cluster)
    cache = {
        "capacity_blocks": cache_cfg.capacity_blocks,
        "policy": cache_cfg.policy,
        "hit_ratio_per_node": {
            str(node): round(ratio, 4)
            for node, ratio in sorted(cache_hit_ratios(load).items())
        },
        "dirty_hw": int(load.histogram(CACHE_DIRTY_HW).max),
    }
    return {"points": points, "attribution": attribution, "cache": cache}


def render_report(data: Dict) -> str:
    """The ``report`` artifact as aligned text tables."""
    rows = []
    for p in data["points"]:
        lat, util, qd = p["latency_ms"], p["disk_util"], p["queue_depth_hw"]
        rows.append(
            [
                p["n_nodes"],
                p["completed"],
                p["failed"],
                p["fast_submits"],
                p.get("phase_submits"),
                round(lat["p50"], 3),
                round(lat["p95"], 3),
                round(lat["p99"], 3),
                round(util["mean"], 4) if util["mean"] is not None else None,
                round(util["skew"], 4),
                int(qd["max"]),
            ]
        )
    table = render_table(
        [
            "n_nodes", "completed", "failed", "fast", "phase", "p50_ms",
            "p95_ms", "p99_ms", "disk_util", "util_skew", "qd_hw",
        ],
        rows,
        title="Observability report — shard-merged scale telemetry",
    )
    attr = data["attribution"]
    lines = [
        table,
        "",
        f"Bottleneck attribution (12-node RAID-x point, from the load "
        f"counters; run under a trace sampled @ rate={attr['sample_rate']}, "
        f"seed={attr['sample_seed']}, {attr['n_spans']} spans):",
    ]
    for name, u in attr["usage"].items():
        lines.append(
            f"  {name:16s} mean={u['mean']:6.3f}  peak={u['peak']:6.3f}"
        )
    bn = attr["bottleneck"]
    lines.append(
        f"  -> bottleneck: {bn['name']} (peak {bn['peak']:.3f})"
    )
    cache = data.get("cache")
    if cache:
        lines.append("")
        lines.append(
            f"Buffer cache (12-node RAID-x, Zipf hot-spot reads, "
            f"{cache['capacity_blocks']} blocks/node, "
            f"{cache['policy']}):"
        )
        for node, ratio in cache["hit_ratio_per_node"].items():
            lines.append(f"  node{node:>3s}  hit_ratio={ratio:6.4f}")
    return "\n".join(lines)


def trace_demo(
    archs: Sequence[str] = ("raidx", "raid5"),
    clients: int = 4,
    n: int = 4,
) -> str:
    """Write-path trace comparison (artifact ``tr``).

    Runs a barrier-synchronized small-write burst on each architecture
    under one tracer — the architecture name labels the tracks, so a
    RAID-x write path sits next to RAID-5's in the same Perfetto view —
    then drains RAID-x's background image flushes so the deferred
    mirror-flush spans land too.  Renders the per-layer latency
    histograms; with ``python -m repro.bench tr --trace out.json`` the
    recorded spans are also exported as a Chrome/Perfetto trace.
    """
    from repro.obs import runtime as _obs

    tracer = _obs.TRACER
    temporary = not tracer.enabled
    if temporary:
        tracer = _obs.install()
    lines = []
    try:
        for arch in archs:
            tracer.label = arch
            before = len(tracer)
            cluster = build_cluster(
                trojans_cluster(n=n, k=1), architecture=arch, locking=True
            )
            result = _WORKLOADS["small_write"](
                cluster, clients, repeats=4, queue_depth=2
            ).run()
            cluster.env.run(cluster.env.process(cluster.storage.drain()))
            lines.append(
                f"  {arch:8s} {result.aggregate_bandwidth_mb_s:7.2f} MB/s"
                f"   spans={len(tracer) - before}"
            )
    finally:
        tracer.label = ""
        if temporary:
            _obs.reset()
    head = (
        f"Write-path trace: {clients} clients x 4 x 32 KiB writes, "
        f"{n}x1 array, locking on\n" + "\n".join(lines)
    )
    return head + "\n\n" + tracer.metrics.render(
        "Per-layer latency (histograms) and counters"
    )
