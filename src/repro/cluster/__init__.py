"""Cluster layer: single I/O space, cooperative disk drivers, protocols.

This package turns the hardware models into the paper's serverless
storage cluster: every node runs a cooperative disk driver (CDD) whose
client module redirects block I/O to the storage-manager module of the
disk's owner, over the switched fabric, with consistency maintained by a
replicated lock-group table — no central file server.
"""

from repro.cluster.message import MessageKind, MessageStats, HEADER_BYTES
from repro.cluster.transport import Transport
from repro.cluster.consistency import DistributedLockManager, LockGroupTable
from repro.cluster.cdd import CooperativeDiskDriver
from repro.cache import BlockCache  # moved to its own layer in PR 9
from repro.cluster.sios import SingleIOSpace, Piece
from repro.cluster.cluster import Cluster, build_cluster
from repro.cluster.systems import (
    ARCHITECTURES,
    ChainedSystem,
    DistributedArraySystem,
    NfsSystem,
    Raid0System,
    Raid5System,
    Raid10System,
    RaidxSystem,
    StorageSystem,
)

__all__ = [
    "ARCHITECTURES",
    "BlockCache",
    "ChainedSystem",
    "Cluster",
    "CooperativeDiskDriver",
    "DistributedArraySystem",
    "DistributedLockManager",
    "HEADER_BYTES",
    "LockGroupTable",
    "MessageKind",
    "MessageStats",
    "NfsSystem",
    "Piece",
    "Raid0System",
    "Raid10System",
    "Raid5System",
    "RaidxSystem",
    "SingleIOSpace",
    "StorageSystem",
    "Transport",
    "build_cluster",
]
