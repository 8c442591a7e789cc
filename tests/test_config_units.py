"""Configuration validation, unit helpers, message sizes, metadata."""

import pytest

import repro
from repro.cluster.message import (
    ACK_BYTES,
    HEADER_BYTES,
    MessageKind,
    MessageStats,
    read_reply_size,
    read_request_size,
    write_ack_size,
    write_request_size,
)
from repro.config import (
    ArrayGeometry,
    ClusterConfig,
    CpuParams,
    DiskParams,
    NetworkParams,
    trojans_cluster,
)
from repro.errors import ConfigurationError, DiskFailedError, ReproError
from repro.units import (
    FAST_ETHERNET_BPS,
    GB,
    KB,
    KiB,
    MB,
    fmt_bytes,
    fmt_time,
    mb_per_s,
)


def test_trojans_preset_shape():
    cfg = trojans_cluster()
    assert cfg.n_nodes == 12
    assert cfg.geometry.total_disks == 12
    assert cfg.geometry.block_size == 32 * KiB
    cfg.validate()


def test_geometry_2d():
    cfg = trojans_cluster(n=4, k=3)
    assert cfg.geometry.total_disks == 12
    assert cfg.n_nodes == 4


def test_with_geometry_copy():
    cfg = trojans_cluster()
    new = cfg.with_geometry(6, 2)
    assert new.geometry.n == 6 and new.geometry.k == 2
    assert cfg.geometry.n == 12  # original untouched


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        ArrayGeometry(n=1).validate()
    with pytest.raises(ConfigurationError):
        ArrayGeometry(n=4, k=0).validate()
    with pytest.raises(ConfigurationError):
        ArrayGeometry(n=4, block_size=0).validate()


def test_disk_params_validation():
    with pytest.raises(ConfigurationError):
        DiskParams(capacity_bytes=0).validate()
    with pytest.raises(ConfigurationError):
        DiskParams(full_stroke_seek_s=0.001, avg_seek_s=0.01).validate()
    assert DiskParams(rpm=7200).avg_rotation_s == pytest.approx(
        0.5 * 60 / 7200
    )


def test_network_params_validation():
    with pytest.raises(ConfigurationError):
        NetworkParams(link_rate=0).validate()
    with pytest.raises(ConfigurationError):
        NetworkParams(mtu_bytes=0).validate()
    p = NetworkParams()
    cost = p.message_cpu_cost(1000)
    assert cost > p.per_message_overhead_s


def test_cpu_params():
    with pytest.raises(ConfigurationError):
        CpuParams(xor_rate=0).validate()
    p = CpuParams()
    assert p.xor_time(p.xor_rate) == pytest.approx(1.0)


def test_message_sizes():
    assert read_request_size() == HEADER_BYTES
    assert read_reply_size(1000) == HEADER_BYTES + 1000
    assert write_request_size(1000) == HEADER_BYTES + 1000
    assert write_ack_size() == ACK_BYTES
    with pytest.raises(ValueError):
        MessageStats().record(MessageKind.READ_REQ, -1)


def test_units_constants():
    assert KB == 1000 and MB == 10**6 and GB == 10**9
    assert KiB == 1024
    assert FAST_ETHERNET_BPS == pytest.approx(12.5e6)
    assert mb_per_s(25e6) == pytest.approx(25.0)


def test_fmt_helpers():
    assert fmt_bytes(1_500_000) == "1.50 MB"
    assert fmt_bytes(999) == "999 B"
    assert "ms" in fmt_time(0.005)
    assert "us" in fmt_time(5e-6)
    assert "s" in fmt_time(2.0)


def test_exception_hierarchy():
    assert issubclass(ConfigurationError, ReproError)
    assert issubclass(DiskFailedError, ReproError)
    e = DiskFailedError(7)
    assert e.disk_id == 7
    assert "7" in str(e)


def test_version_metadata():
    assert repro.__version__ == "1.0.0"
    assert callable(repro.build_cluster)


def test_top_level_build_cluster():
    cluster = repro.build_cluster(architecture="raid0")
    assert cluster.n_nodes == 12
    assert cluster.storage.name == "raid0"
