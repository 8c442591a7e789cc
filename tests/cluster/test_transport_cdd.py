"""Transport costs and the cooperative disk driver protocol."""

import pytest

from repro.cluster.cluster import Cluster, build_cluster
from repro.cluster.message import MessageKind
from repro.units import KiB
from tests.conftest import run_proc, small_config


def test_loopback_message_is_cheap():
    cluster = Cluster(small_config(n=4))
    env = cluster.env
    t = {}

    def p():
        t0 = env.now
        yield from cluster.transport.message(
            MessageKind.READ_REQ, 0, 0, 32 * KiB
        )
        t["local"] = env.now - t0
        t0 = env.now
        yield from cluster.transport.message(
            MessageKind.READ_REQ, 0, 1, 32 * KiB
        )
        t["remote"] = env.now - t0

    run_proc(cluster, p())
    assert t["local"] < t["remote"]


def test_message_stats_recorded():
    cluster = Cluster(small_config(n=4))

    def p():
        yield from cluster.transport.message(MessageKind.WRITE_REQ, 0, 1, 100)
        yield from cluster.transport.message(MessageKind.WRITE_ACK, 1, 0, 64)

    run_proc(cluster, p())
    s = cluster.transport.stats
    assert s.total_messages == 2
    assert s.total_bytes == 164
    assert s.by_kind["write_req"][0] == 1


def test_message_stats_reject_negative_size():
    cluster = Cluster(small_config(n=4))

    def p():
        yield from cluster.transport.message(MessageKind.READ_REQ, 0, 1, -1)

    with pytest.raises(ValueError, match="negative message size"):
        run_proc(cluster, p())
    assert cluster.transport.stats.total_messages == 0


def test_local_block_io_skips_network():
    cluster = build_cluster(small_config(n=4), architecture="raid0")
    cdd = cluster.cdds[0]
    before = cluster.transport.stats.total_messages

    def p():
        yield from cdd.block_io("read", 0, 0, 32 * KiB)

    run_proc(cluster, p())
    assert cluster.transport.stats.total_messages == before
    assert cluster.transport.stats.local_block_ops == 1


def test_remote_block_io_two_messages():
    cluster = build_cluster(small_config(n=4), architecture="raid0")
    cdd = cluster.cdds[0]

    def p():
        yield from cdd.block_io("read", 1, 0, 32 * KiB)

    run_proc(cluster, p())
    s = cluster.transport.stats
    assert s.remote_block_ops == 1
    assert s.by_kind["read_req"][0] == 1
    assert s.by_kind["read_reply"][0] == 1
    # The read reply carried the payload.
    assert s.by_kind["read_reply"][1] > 32 * KiB


def test_remote_write_payload_on_request():
    cluster = build_cluster(small_config(n=4), architecture="raid0")
    cdd = cluster.cdds[0]

    def p():
        yield from cdd.block_io("write", 1, 0, 32 * KiB)

    run_proc(cluster, p())
    s = cluster.transport.stats
    assert s.by_kind["write_req"][1] > 32 * KiB
    assert s.by_kind["write_ack"][1] < 1 * KiB


def test_owner_mapping_matches_fig3():
    cluster = build_cluster(small_config(n=4, k=3), architecture="raid0")
    cdd = cluster.cdds[0]
    assert cdd.owner_of(0) == 0
    assert cdd.owner_of(4) == 0
    assert cdd.owner_of(5) == 1
    assert cdd.owner_of(11) == 3


def test_remote_read_touches_remote_disk():
    cluster = build_cluster(small_config(n=4), architecture="raid0")
    cdd = cluster.cdds[0]

    def p():
        yield from cdd.block_io("read", 2, 0, 32 * KiB)

    run_proc(cluster, p())
    assert cluster.disk(2).stats.reads == 1
    assert cluster.disk(0).stats.reads == 0


def test_cluster_stats_snapshot():
    cluster = build_cluster(small_config(n=4), architecture="raid0")

    def p():
        yield cluster.storage.submit(0, "write", 0, 64 * KiB)

    run_proc(cluster, p())
    snap = cluster.stats()
    assert snap["time"] > 0
    assert 0 <= snap["disk_utilization"] <= 1
    assert snap["messages"]["messages"] >= 0
