"""Bottleneck analysis: which resource limits a run?

Inspects a cluster's cumulative resource accounting after a workload and
ranks utilizations — the "where did the time go" companion to the
bandwidth numbers, used by the sensitivity benchmark (A11) to verify
that scaling the *named* bottleneck actually moves throughput.

Every figure comes from the always-on load registry
(:func:`repro.obs.load.collect_load`), so a run reads the same with or
without a tracer installed, and at any sample rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.obs.load import class_utilizations, collect_load


@dataclass
class ResourceUsage:
    """Mean and peak utilization of one resource class."""

    name: str
    mean: float
    peak: float


def _usage(name: str, vals: List[float]) -> ResourceUsage:
    if not vals:
        return ResourceUsage(name, 0.0, 0.0)
    return ResourceUsage(name, sum(vals) / len(vals), max(vals))


def resource_usage(cluster) -> List[ResourceUsage]:
    """Utilization (busy fraction since t=0) per resource class, from
    the cluster's load registry; empty before the cluster has run."""
    if cluster.env.now <= 0:
        return []
    return [
        _usage(cls, vals)
        for cls, vals in class_utilizations(collect_load(cluster)).items()
    ]


#: Classes eligible to be *named* the bottleneck.  Total disk busy time
#: is reported but excluded: background traffic (RAID-x image flushes)
#: has slack and inflates it without sitting on the critical path — the
#: foreground share is the meaningful signal.
_CRITICAL_CLASSES = ("disk_foreground", "nic_tx", "nic_rx", "cpu", "scsi")


def bottleneck(cluster) -> ResourceUsage:
    """The critical-path resource class with the highest peak
    utilization (see ``_CRITICAL_CLASSES`` for why raw disk utilization
    is excluded)."""
    usages = [
        u for u in resource_usage(cluster) if u.name in _CRITICAL_CLASSES
    ]
    if not usages:
        raise ValueError("cluster has not run yet")
    return max(usages, key=lambda u: u.peak)


def usage_table(cluster) -> Dict[str, Dict[str, float]]:
    """{resource: {mean, peak}} for reports."""
    return {
        u.name: {"mean": round(u.mean, 3), "peak": round(u.peak, 3)}
        for u in resource_usage(cluster)
    }
