"""Always-on load accounting: hardware counters → a MetricsRegistry.

The hardware layer already keeps cheap cumulative counters on every
path, traced or not — :class:`~repro.hardware.disk.DiskStats` (busy
time, bytes, per-disk read/write counts, queue-depth high-water),
:class:`~repro.sim.shared.BandwidthLink` busy time and bytes carried
(CPU work links, SCSI buses, NIC TX/RX) — so "load accounting" costs
the hot path nothing beyond the one compare per disk submit that
maintains the high-water mark.  This module is the *collection* step:
an on-demand sweep of those counters into a
:class:`~repro.obs.metrics.MetricsRegistry`, whose payload form merges
across sweep shards (see ``MetricsRegistry.merge``).

Conventions
-----------
Every name is prefixed ``load.``; per-device names embed the global
device id (``load.disk3.busy_s``, ``load.node1.cpu_busy_s``).  All
per-device figures are *counters* — cumulative seconds, bytes, or op
counts — never ratios: ratios don't merge.  Utilization is derived at
report time against ``load.sim_s`` (summed simulated seconds, so a
merged utilization is the busy-weighted mean across shards), by
:func:`class_utilizations` for bottleneck analysis and cluster stats.  The one
exception is the queue-depth high-water, which must merge by *max*,
not sum: each disk's high-water is observed into the shared
``load.disk.queue_depth_hw`` histogram, whose merge keeps the exact
max (and the cross-disk distribution for skew reporting).

When the storage system runs with the buffer-cache layer attached
(:mod:`repro.cache`), the sweep also collects per-node cache counters
(``load.nodeN.cache.hits`` / ``.misses`` / ``.fills`` / ``.absorbed``
/ ``.destaged`` / ``.destage_batches`` / ``.lost`` /
``.invalidations`` / ``.evictions``) plus the dirty-block high-water
histogram ``load.cache.dirty_hw`` (max-merge, like queue depth).  Hit
*ratios* are derived at report time via :func:`cache_hit_ratios`.

A serverless array's engine adds host-side counters, which record how
requests were served rather than what was simulated:
``load.fast_submits``, ``load.phase_submits``,
``load.ff_plan_evictions`` and one ``load.ff_fallback.<reason>`` per
fast-path fallback reason seen (engine and node refusals summed; read
back with :func:`fallback_reasons`).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Histogram of per-disk queue-depth high-water marks (merge keeps max).
QUEUE_DEPTH_HW = "load.disk.queue_depth_hw"
#: Histogram of per-disk busy fractions at collection time — the merged
#: distribution is what utilization-skew reporting reads.
DISK_UTIL = "load.disk.util"
#: Name prefix of the fast-path fallback counters, one per reason.
FF_FALLBACK = "load.ff_fallback."


def collect_load(cluster: Any, registry: Optional[MetricsRegistry] = None
                 ) -> MetricsRegistry:
    """Sweep a finished cluster's hardware counters into a registry.

    Safe to call repeatedly only on *distinct* registries (counters are
    cumulative adds, so a second sweep into the same registry would
    double-count).
    """
    reg = registry if registry is not None else MetricsRegistry()
    env = cluster.env
    elapsed = env.now
    reg.counter("load.sim_s").value += elapsed
    for d in cluster.all_disks():
        st = d.stats
        base = f"load.disk{d.disk_id}"
        reg.counter(f"{base}.busy_s").value += st.busy_time
        reg.counter(f"{base}.busy_fg_s").value += st.busy_time_foreground
        reg.counter(f"{base}.reads").value += st.reads
        reg.counter(f"{base}.writes").value += st.writes
        reg.counter(f"{base}.bytes").value += st.total_bytes
        reg.observe(QUEUE_DEPTH_HW, st.queue_depth_hw)
        if elapsed > 0:
            reg.observe(DISK_UTIL, min(1.0, st.busy_time / elapsed))
    for node in cluster.nodes:
        base = f"load.node{node.node_id}"
        reg.counter(f"{base}.cpu_busy_s").value += node.cpu._work.busy_time
        reg.counter(f"{base}.scsi_busy_s").value += node.scsi._link.busy_time
        reg.counter(f"{base}.scsi_bytes").value += node.scsi._link.bytes_carried
    for nic in cluster.network.nics:
        base = f"load.nic{nic.node_id}"
        reg.counter(f"{base}.tx_busy_s").value += nic.tx.busy_time
        reg.counter(f"{base}.rx_busy_s").value += nic.rx.busy_time
        reg.counter(f"{base}.tx_bytes").value += nic.bytes_sent
        reg.counter(f"{base}.rx_bytes").value += nic.bytes_received
    storage = getattr(cluster, "storage", None)
    engine = getattr(storage, "engine", None)
    if engine is not None:
        reg.counter("load.fast_submits").value += engine.fast_submits
        reg.counter("load.phase_submits").value += engine.phase_submits
        reg.counter("load.ff_plan_evictions").value += (
            engine.ff_plan_evictions
        )
        reasons = Counter(engine.ff_fallbacks)
        for node in cluster.nodes:
            reasons.update(node.ff_fallbacks)
        for reason, count in sorted(reasons.items()):
            reg.counter(FF_FALLBACK + reason).value += count
        stage = getattr(engine, "cache", None)
        if stage is not None:
            _collect_cache(stage, reg)
    return reg


#: Histogram of per-node dirty-block high-water marks (merge keeps max).
CACHE_DIRTY_HW = "load.cache.dirty_hw"


def _collect_cache(stage: Any, reg: MetricsRegistry) -> None:
    """Sweep the buffer-cache stage's per-node counters.

    Same conventions as the hardware sweep: raw cumulative counts only
    (hit *ratios* are derived at report time, so merged shards give the
    access-weighted ratio), and the dirty-block high-water goes into a
    max-merge histogram.
    """
    for cache in stage.caches:
        st = cache.stats
        base = f"load.node{cache.node_id}.cache"
        reg.counter(f"{base}.hits").value += st.hits
        reg.counter(f"{base}.misses").value += st.misses
        reg.counter(f"{base}.fills").value += st.fills
        reg.counter(f"{base}.absorbed").value += st.write_absorbed
        reg.counter(f"{base}.destaged").value += st.destaged
        reg.counter(f"{base}.destage_batches").value += st.destage_batches
        reg.counter(f"{base}.lost").value += st.lost
        reg.counter(f"{base}.invalidations").value += st.invalidations
        reg.counter(f"{base}.evictions").value += st.evictions
        reg.observe(CACHE_DIRTY_HW, st.dirty_hw)


def _device_counters(reg: MetricsRegistry, dev: str, suffix: str
                     ) -> Dict[int, float]:
    """{device id: value} of every ``load.<dev><id>.<suffix>`` counter,
    in device-id order — the one parser for per-device names."""
    prefix, tail = f"load.{dev}", f".{suffix}"
    out: Dict[int, float] = {}
    for name in reg.counter_names():
        if name.startswith(prefix) and name.endswith(tail):
            ident = name[len(prefix):-len(tail)]
            if ident.isdigit():
                out[int(ident)] = reg.counter(name).value
    return dict(sorted(out.items()))


def fallback_reasons(reg: MetricsRegistry) -> Dict[str, int]:
    """{reason: count} of the fast-path fallbacks in a (possibly merged)
    registry, most frequent first."""
    counts = {
        name[len(FF_FALLBACK):]: int(reg.counter(name).value)
        for name in reg.counter_names()
        if name.startswith(FF_FALLBACK)
    }
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def cache_hit_ratios(reg: MetricsRegistry) -> Dict[int, float]:
    """{node id: read hit ratio} derived from a (possibly merged)
    registry — hits / (hits + misses), the access-weighted mean across
    shards.  Nodes with no cache traffic are omitted."""
    misses = _device_counters(reg, "node", "cache.misses")
    out: Dict[int, float] = {}
    for node, hits in _device_counters(reg, "node", "cache.hits").items():
        total = hits + misses.get(node, 0)
        if total > 0:
            out[node] = hits / total
    return out


def _device_utilizations(reg: MetricsRegistry, dev: str, suffix: str
                         ) -> Dict[int, float]:
    """{device id: busy fraction} from the ``load.<dev><id>.<suffix>``
    busy-seconds counters over ``load.sim_s`` — over merged shards, the
    busy-weighted mean utilization per device.  The one place busy time
    becomes a ratio."""
    sim_s = reg.counter("load.sim_s").value
    if not sim_s:
        return {}
    return {
        ident: min(1.0, busy / sim_s)
        for ident, busy in _device_counters(reg, dev, suffix).items()
    }


def disk_utilizations(reg: MetricsRegistry) -> Dict[int, float]:
    """{disk id: busy fraction} derived from a (possibly merged)
    registry (``load.diskN.busy_s / load.sim_s``)."""
    return _device_utilizations(reg, "disk", "busy_s")


#: Utilization class → (device kind, busy-seconds counter suffix) in
#: the registry's ``load.<dev><id>.<suffix>`` names.  ``disk_foreground``
#: excludes background (priority-1) service such as RAID-x image flushes.
_UTIL_CLASSES = {
    "disk": ("disk", "busy_s"),
    "disk_foreground": ("disk", "busy_fg_s"),
    "nic_tx": ("nic", "tx_busy_s"),
    "nic_rx": ("nic", "rx_busy_s"),
    "cpu": ("node", "cpu_busy_s"),
    "scsi": ("node", "scsi_busy_s"),
}


def class_utilizations(reg: MetricsRegistry) -> Dict[str, List[float]]:
    """{utilization class: per-device busy fractions in device-id order}
    for every class of :data:`_UTIL_CLASSES`; empty lists before any
    simulated time has passed."""
    return {
        cls: list(_device_utilizations(reg, dev, suffix).values())
        for cls, (dev, suffix) in _UTIL_CLASSES.items()
    }


def utilization_skew(reg: MetricsRegistry) -> float:
    """Max/mean per-disk utilization — 1.0 is perfectly even.

    The headline balance figure for ``sc`` rows and reports: RAID-x's
    orthogonal mirror layout should keep it near 1, while skewed
    layouts (or unbalanced mirror-read policies) push it up.
    """
    utils: List[float] = list(disk_utilizations(reg).values())
    if not utils:
        return float("nan")
    mean = sum(utils) / len(utils)
    if mean <= 0:
        return float("nan")
    return max(utils) / mean
