"""Configuration dataclasses and the Trojans-cluster preset.

All hardware and protocol constants are concentrated here so that every
experiment runs the competing storage architectures on *identical*
simulated hardware — the property that makes relative comparisons
meaningful (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.units import KB, KiB, MB, MS, US


@dataclass(frozen=True)
class DiskParams:
    """A mechanical disk model, calibrated to a c.-1999 SCSI drive.

    The service-time model is ``seek(distance) + rotation + size/media_rate``
    for random access; sequential successors skip seek and rotation.
    """

    capacity_bytes: int = 10_000 * MB  # 10 GB, as on the Trojans nodes
    media_rate: float = 16 * MB  # sustained media transfer (B/s)
    avg_seek_s: float = 8.5 * MS
    track_to_track_seek_s: float = 1.0 * MS
    full_stroke_seek_s: float = 17.0 * MS
    rpm: float = 7200.0
    controller_overhead_s: float = 0.3 * MS
    #: Contiguous-LBA window treated as "sequential" (skips seek+rotation).
    sequential_window_bytes: int = 512 * KiB

    @property
    def avg_rotation_s(self) -> float:
        """Average rotational delay: half a revolution."""
        return 0.5 * 60.0 / self.rpm

    def validate(self) -> None:
        if self.capacity_bytes <= 0 or self.media_rate <= 0:
            raise ConfigurationError("disk capacity and rate must be positive")
        if self.full_stroke_seek_s < self.avg_seek_s:
            raise ConfigurationError("full-stroke seek below average seek")


@dataclass(frozen=True)
class NetworkParams:
    """Switched-Ethernet fabric model (per-port full duplex)."""

    link_rate: float = 12.5 * MB  # 100 Mbit/s per port
    switch_latency_s: float = 60 * US
    #: Fixed per-message protocol CPU at each endpoint (interrupt, TCP).
    per_message_overhead_s: float = 120 * US
    #: Per-KB protocol CPU at each endpoint (checksums, copies).
    per_kb_overhead_s: float = 25 * US
    #: Maximum transfer unit — large messages are fragmented.
    mtu_bytes: int = 32 * KiB
    #: Incast goodput-collapse model (era TCP over Fast Ethernet): when
    #: more than ``incast_flow_threshold`` distinct senders have
    #: messages in flight toward one receive port, each RX transfer
    #: stretches by ``incast_penalty`` per excess flow, capped at
    #: ``incast_max_stretch`` (goodput floors, it does not hit zero).
    #: This models the switch-buffer overflow / TCP retransmission
    #: contention the paper (and Vaidya's staggering argument) rest on.
    #: None disables.
    incast_flow_threshold: int | None = 6
    incast_penalty: float = 0.15
    incast_max_stretch: float = 1.5

    def message_cpu_cost(self, nbytes: float) -> float:
        """Endpoint CPU time to process one message of ``nbytes``."""
        return self.per_message_overhead_s + self.per_kb_overhead_s * (
            nbytes / KB
        )

    def validate(self) -> None:
        if self.link_rate <= 0:
            raise ConfigurationError("link rate must be positive")
        if self.mtu_bytes <= 0:
            raise ConfigurationError("MTU must be positive")


@dataclass(frozen=True)
class CpuParams:
    """CPU cost model for storage-path software work."""

    xor_rate: float = 80 * MB  # parity XOR throughput (B/s)
    memcpy_rate: float = 180 * MB
    #: Per-request driver overhead at kernel level (CDD path).
    kernel_request_overhead_s: float = 50 * US
    #: Per-request overhead through a user-level server (NFS-style RPC).
    user_level_request_overhead_s: float = 400 * US

    def xor_time(self, nbytes: float) -> float:
        """CPU time for one XOR pass over ``nbytes``."""
        return nbytes / self.xor_rate

    def validate(self) -> None:
        if self.xor_rate <= 0 or self.memcpy_rate <= 0:
            raise ConfigurationError("CPU rates must be positive")


@dataclass(frozen=True)
class ArrayGeometry:
    """An n-wide × k-deep distributed disk array (paper's Fig. 3).

    ``n`` nodes each drive ``k`` local disks; the stripe width is ``n``
    and consecutive stripe groups pipeline across each node's k disks.
    """

    n: int = 12  # nodes / stripe width
    k: int = 1  # disks per node / pipeline depth
    block_size: int = 32 * KiB

    @property
    def total_disks(self) -> int:
        return self.n * self.k

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigurationError("array needs at least 2 nodes")
        if self.k < 1:
            raise ConfigurationError("k must be at least 1")
        if self.block_size <= 0:
            raise ConfigurationError("block size must be positive")


@dataclass(frozen=True)
class ClusterConfig:
    """Complete configuration of a simulated cluster."""

    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)
    disk: DiskParams = field(default_factory=DiskParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    seed: int = 0x5EED

    @property
    def n_nodes(self) -> int:
        return self.geometry.n

    def validate(self) -> None:
        self.geometry.validate()
        self.disk.validate()
        self.network.validate()
        self.cpu.validate()

    def with_geometry(self, n: int, k: int = 1, **kw) -> "ClusterConfig":
        """A copy with a different array geometry."""
        geo = replace(self.geometry, n=n, k=k, **kw)
        return replace(self, geometry=geo)


def trojans_cluster(n: int = 12, k: int = 1) -> ClusterConfig:
    """The USC Trojans cluster preset: 12 PII/400 nodes, Fast Ethernet,
    one 10 GB SCSI disk per node (k > 1 models the 2D arrays of Fig. 3)."""
    cfg = ClusterConfig(geometry=ArrayGeometry(n=n, k=k))
    cfg.validate()
    return cfg
