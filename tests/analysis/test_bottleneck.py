"""Bottleneck analysis over a run cluster."""

import pytest

from repro.analysis.bottleneck import bottleneck, resource_usage, usage_table
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.obs import runtime as obs_runtime
from repro.units import MB
from repro.workloads.parallel_io import ParallelIOWorkload
from tests.conftest import small_config


def run_cluster():
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    ParallelIOWorkload(cluster, 4, op="write", size=1 * MB).run()
    return cluster


def test_usage_covers_all_resource_classes():
    cluster = run_cluster()
    usages = {u.name for u in resource_usage(cluster)}
    assert usages == {"disk", "disk_foreground", "nic_tx", "nic_rx", "cpu", "scsi"}


def test_usages_bounded():
    cluster = run_cluster()
    for u in resource_usage(cluster):
        assert 0.0 <= u.mean <= u.peak <= 1.0


def test_bottleneck_is_loaded():
    cluster = run_cluster()
    b = bottleneck(cluster)
    assert b.peak > 0.1


def test_bottleneck_before_run_rejected():
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    with pytest.raises(ValueError):
        bottleneck(cluster)


def test_foreground_disk_usage_excludes_background():
    cluster = run_cluster()
    table = usage_table(cluster)
    # RAID-x background image flushes inflate total disk busy time.
    assert table["disk_foreground"]["peak"] <= table["disk"]["peak"]


def test_bottleneck_never_names_raw_disk():
    cluster = run_cluster()
    assert bottleneck(cluster).name != "disk"


def test_usage_table_shape():
    cluster = run_cluster()
    table = usage_table(cluster)
    assert set(table) == {"disk", "disk_foreground", "nic_tx", "nic_rx", "cpu", "scsi"}
    for vals in table.values():
        assert set(vals) == {"mean", "peak"}


def _a11_base_point(sample_rate=None):
    """Usage, usage table and bottleneck of the sensitivity benchmark's
    base point (12-node RAID-x, 12 x 2 MB writes), optionally run under
    a tracer at ``sample_rate``."""

    def run():
        cluster = build_cluster(trojans_cluster(), architecture="raidx")
        ParallelIOWorkload(cluster, 12, op="write", size=2 * MB).run()
        return resource_usage(cluster), usage_table(cluster), bottleneck(
            cluster
        )

    if sample_rate is None:
        return run()
    with obs_runtime.tracing(sample_rate=sample_rate, sample_seed=0) as tr:
        out = run()
        assert len(tr) > 0
    return out


def test_usage_is_independent_of_tracing():
    untraced = _a11_base_point()
    for rate in (1.0, 0.05):
        assert _a11_base_point(rate) == untraced
    _usage, table, named = untraced
    # The foreground disk share is the busiest critical-path class; the
    # NICs and CPUs are well short of saturation.
    assert named.name == "disk_foreground"
    assert table["nic_tx"]["peak"] < 0.5 and table["cpu"]["peak"] < 0.5
