#!/usr/bin/env python3
"""Scenario: capacity planning for a production RAID-x deployment.

Combines three of the library's analysis tools:

1. a **utilization timeline** sampled while a write burst runs (where
   is the bottleneck — disks, network, CPU?);
2. the **reliability model**, cross-checked by Monte-Carlo simulation
   (how wide may stripe groups be before MTTDL gets uncomfortable?);
3. **Young's checkpoint-interval planner** fed with a *measured*
   checkpoint cost from the simulator (how often should the application
   checkpoint, and what does that cost in overhead?).

    python examples/capacity_planning.py
"""

from repro.analysis.report import render_sparkline, render_table
from repro.checkpoint import CheckpointConfig, CheckpointRun, plan_interval
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.fault import mttdl_raidx, simulate_mttdl
from repro.obs.load import collect_load
from repro.raid import make_layout
from repro.units import KiB, MB
from repro.workloads.parallel_io import ParallelIOWorkload

METRICS = ("disk_utilization", "network_utilization", "cpu_utilization")


def busy_totals(cluster):
    """(disk, network, CPU) busy seconds from a fresh load snapshot."""
    counters = collect_load(cluster).snapshot()["counters"]
    disk = sum(counters[f"load.disk{d.disk_id}.busy_s"]
               for d in cluster.all_disks())
    net = sum(counters[f"load.nic{nic.node_id}.tx_busy_s"]
              + counters[f"load.nic{nic.node_id}.rx_busy_s"]
              for nic in cluster.network.nics)
    cpu = sum(counters[f"load.node{node.node_id}.cpu_busy_s"]
              for node in cluster.nodes)
    return disk, net, cpu


class UtilizationSampler:
    """Interval-local disk/network/CPU utilization of a running cluster.

    Each sample is the busy time accrued since the previous one divided
    by the elapsed time and the device count, so the series shows load
    changes (ramp-up, drain) rather than a running average.
    """

    def __init__(self, cluster, interval):
        self.cluster = cluster
        self.interval = interval
        self.series = {m: [] for m in METRICS}
        self._last = busy_totals(cluster)
        self._last_time = cluster.env.now

    def run(self):
        """Process generator: one sample per ``interval``, forever."""
        while True:
            yield self.interval
            self.sample()

    def sample(self):
        """Append one sample covering the time since the previous one."""
        cluster = self.cluster
        elapsed = cluster.env.now - self._last_time
        if elapsed <= 0:
            return
        counts = (
            max(1, cluster.n_disks),
            max(1, 2 * len(cluster.network.nics)),
            max(1, len(cluster.nodes)),
        )
        totals = busy_totals(cluster)
        for metric, busy, last, n in zip(METRICS, totals, self._last, counts):
            self.series[metric].append(min(1.0, (busy - last) / (elapsed * n)))
        self._last = totals
        self._last_time = cluster.env.now


def utilization_timeline() -> None:
    from repro.analysis.bottleneck import bottleneck, usage_table

    cluster = build_cluster(trojans_cluster(), architecture="raidx")
    sampler = UtilizationSampler(cluster, interval=0.02)
    cluster.env.process(sampler.run())
    r = ParallelIOWorkload(cluster, 12, op="write", size=2 * MB).run()
    sampler.sample()  # the partial interval since the last tick
    print(f"write burst: {r.aggregate_bandwidth_mb_s:.1f} MB/s aggregate")
    for metric, series in sampler.series.items():
        print(
            f"  {metric:20s} peak {max(series):5.0%}  "
            f"|{render_sparkline(series)}|"
        )
    hot = bottleneck(cluster)
    print(
        f"  utilization names '{hot.name}' (peak {hot.peak:.0%}) — but "
        f"see benchmark A11: sensitivity analysis shows the network is "
        f"the actual lever for this workload."
    )
    print(f"  full usage table: {usage_table(cluster)}")
    print()


def reliability_envelope() -> None:
    mttf, mttr = 500_000.0, 24.0
    rows = []
    for n, k in ((3, 4), (4, 3), (6, 2), (12, 1)):
        analytical = mttdl_raidx(12, mttf, mttr, stripe_width=n)
        layout = make_layout(
            "raidx", n_disks=12, block_size=1, disk_capacity=16,
            stripe_width=n,
        )
        # Monte-Carlo with compressed time scales to verify the model.
        sim = simulate_mttdl(layout, 1000.0, 10.0, runs=120)
        scaled = sim.mean_hours * (mttf / 1000.0) * (
            (mttf / mttr) / (1000.0 / 10.0)
        )
        rows.append(
            [f"{n}x{k}", f"{analytical:,.0f}", f"{scaled:,.0f}",
             layout.max_fault_coverage()]
        )
    print(
        render_table(
            ["geometry", "MTTDL model (h)", "MTTDL simulated (h)",
             "max coverage"],
            rows,
            title="Reliability envelope, 12 disks (500k h MTTF, 24 h "
            "repair)",
        )
    )
    print()


def checkpoint_cadence() -> None:
    cluster = build_cluster(trojans_cluster(), architecture="raidx")
    cfg = CheckpointConfig(
        processes=12, state_bytes=8 * MB, scheme="striped_staggered",
        stagger_groups=3,
    )
    result = CheckpointRun(cluster, cfg).run()
    plan = plan_interval(
        checkpoint_cost_s=result.total_time,
        mtbf_s=12 * 3600.0,  # one node failure every 12 h, say
        recovery_cost_s=0.5,
    )
    print(
        f"measured checkpoint epoch: {result.total_time:.2f} s "
        f"({result.aggregate_bandwidth_mb_s:.0f} MB/s)\n"
        f"Young's optimal interval : {plan.interval_s / 60:.1f} min\n"
        f"expected overhead        : {plan.overhead:.2%} of runtime"
    )


def main() -> None:
    utilization_timeline()
    reliability_envelope()
    checkpoint_cadence()


if __name__ == "__main__":
    main()
