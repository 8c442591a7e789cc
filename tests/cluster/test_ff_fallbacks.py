"""Fast-path fallback reasons: one named count per refused request.

Every ``return None`` exit of ``ExecutionEngine.try_fast_submit``, of
its read and write resolvers and of ``Node.try_fast_forward`` counts one
reason, so on a node-FF system the reasons account for every request
the phase path served.  ``collect_load`` merges them as host counters
``load.ff_fallback.<reason>``.
"""

import pytest

from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.obs.load import collect_load, fallback_reasons
from repro.workloads.openloop import OpenLoopWorkload
from tests.conftest import small_config
from tests.hardware.test_node_fastforward import _run_scenario


def _census(cluster):
    return fallback_reasons(collect_load(cluster))


@pytest.mark.parametrize("arch", ["raid0", "raid10", "chained", "raidx"])
def test_reasons_sum_to_phase_submits(arch):
    _, cluster = _run_scenario(True, arch=arch)
    engine = cluster.storage.engine
    census = _census(cluster)
    assert engine.fast_submits > 0
    assert sum(census.values()) == engine.phase_submits > 0
    # Remote owners and busy disks occur in every mixed run.
    assert {"remote_owner", "disk_busy"} <= set(census)


def test_raidx_writes_fall_back_on_their_shape():
    _, cluster = _run_scenario(True, arch="raidx", op_mix="write",
                               placement="local")
    census = _census(cluster)
    assert census["write_shape"] > 0
    assert sum(census.values()) == cluster.storage.engine.phase_submits


def test_dense_open_loop_census():
    # Owner-local reads never meet a remote owner; they fall back on a
    # busy disk, or behind their own client's phase request.
    cluster = build_cluster(trojans_cluster(n=16), architecture="raidx")
    OpenLoopWorkload(
        cluster, rate_ops_per_s=60.0 * 16, duration_s=None,
        n_requests=3000, op="read", placement="local", seed=11,
    ).run()
    census = _census(cluster)
    assert set(census) <= {
        "disk_busy", "client_phase_inflight", "cpu_busy", "scsi_busy",
    }
    assert census["disk_busy"] > 0 and census["client_phase_inflight"] > 0
    assert sum(census.values()) == cluster.storage.engine.phase_submits


@pytest.mark.parametrize(
    "kwargs, reason",
    [
        ({"cache": CacheConfig(capacity_blocks=64)}, "cached"),
        ({"locking": True}, "locking"),
        ({"read_policy": "shortest_queue"}, "read_policy"),
    ],
    ids=["cached", "locking", "shortest_queue"],
)
def test_a_system_wide_refusal_names_one_reason(kwargs, reason):
    arch = "raid10" if "read_policy" in kwargs else "raid0"
    cluster = build_cluster(small_config(n=4), architecture=arch, **kwargs)
    storage = cluster.storage
    # One request per client, so none waits behind its own client.
    for client in range(4):
        storage.submit(client, "read", client * storage.block_size,
                       storage.block_size)
    cluster.env.run()
    assert _census(cluster) == {reason: 4}
    assert storage.engine.phase_submits == 4


def test_zero_length_and_spanning_requests_are_named():
    cluster = build_cluster(small_config(n=4), architecture="raid0")
    storage = cluster.storage
    bs = storage.block_size
    storage.submit(0, "read", 0, 0)
    cluster.env.run()
    storage.submit(0, "write", bs // 2, bs)
    cluster.env.run()
    assert _census(cluster) == {"zero_length": 1, "spans_blocks": 1}


def test_a_node_ff_off_system_counts_nothing():
    _, cluster = _run_scenario(False, arch="raidx")
    assert cluster.storage.engine.phase_submits > 0
    assert _census(cluster) == {}
