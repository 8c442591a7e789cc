"""Cluster assembly: environment + hardware + CDDs + storage system."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.cdd import CooperativeDiskDriver
from repro.cluster.consistency import DistributedLockManager
from repro.cluster.transport import Transport
from repro.config import ClusterConfig, trojans_cluster
from repro.errors import ConfigurationError
from repro.hardware.disk import Disk
from repro.hardware.network import Network
from repro.hardware.node import Node
from repro.obs.load import class_utilizations, collect_load, disk_utilizations
from repro.sim.core import Environment
from repro.sim.rand import RandomStreams


def _mean(vals) -> float:
    vals = list(vals)
    return sum(vals) / len(vals) if vals else 0.0


class Cluster:
    """A fully assembled simulated cluster.

    Owns the simulation environment, the n nodes (each with k disks),
    the switched fabric, the transport, the CDDs, and one storage system
    (set by :func:`build_cluster`).
    """

    def __init__(
        self,
        config: ClusterConfig,
        env: Optional[Environment] = None,
        scheduler_policy: Optional[str] = None,
        locking: bool = False,
        cdd_mode: str = "inline",
        cdd_service_slots: int = 8,
    ):
        config.validate()
        self.config = config
        self.env = env or Environment()
        self.rand = RandomStreams(config.seed)
        geo = config.geometry
        self.network = Network(self.env, geo.n, config.network)
        # Node j drives disks j, j+n, j+2n, ... (paper's Fig. 3).
        self.nodes: List[Node] = [
            Node(
                self.env,
                config,
                node_id=j,
                disk_ids=[j + g * geo.n for g in range(geo.k)],
                scheduler_policy=scheduler_policy,
            )
            for j in range(geo.n)
        ]
        # Attach each node's NIC: the node fast-forward predicate needs
        # a local view of in-flight network traffic.
        for node, nic in zip(self.nodes, self.network.nics):
            node.nic = nic
        self.transport = Transport(self.env, self.network, self.nodes, config)
        self.lock_manager = (
            DistributedLockManager(self.env, self.transport, geo.n)
            if locking
            else None
        )
        if cdd_mode not in ("inline", "server"):
            raise ConfigurationError(
                f"unknown cdd_mode {cdd_mode!r}; use 'inline' or 'server'"
            )
        self.cdd_mode = cdd_mode
        self.manager_servers = None
        if cdd_mode == "server":
            from repro.cluster.manager import StorageManagerServer

            self.manager_servers = [
                StorageManagerServer(node, service_slots=cdd_service_slots)
                for node in self.nodes
            ]
        self.cdds: List[CooperativeDiskDriver] = [
            CooperativeDiskDriver(
                node,
                self.nodes,
                self.transport,
                self.lock_manager,
                manager_servers=self.manager_servers,
            )
            for node in self.nodes
        ]
        self._disk_index: Dict[int, Disk] = {}
        for node in self.nodes:
            for disk in node.disks:
                self._disk_index[disk.disk_id] = disk
        self.storage = None  # set by build_cluster

    # -- convenience -------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_disks(self) -> int:
        return len(self._disk_index)

    @property
    def now(self) -> float:
        return self.env.now

    def disk(self, disk_id: int) -> Disk:
        """Any disk of the array by its global id."""
        return self._disk_index[disk_id]

    def all_disks(self) -> List[Disk]:
        return [self._disk_index[d] for d in sorted(self._disk_index)]

    def run(self, until=None):
        """Advance the simulation (delegates to the environment)."""
        return self.env.run(until)

    # -- fleet statistics -----------------------------------------------------
    def disk_utilization(self) -> float:
        """Mean busy fraction across all disks (from the load registry)."""
        return _mean(disk_utilizations(collect_load(self)).values())

    def stats(self) -> dict:
        """A snapshot of cluster-wide counters for reports."""
        util = class_utilizations(collect_load(self))
        ports = [t + r for t, r in zip(util["nic_tx"], util["nic_rx"])]
        return {
            "time": self.env.now,
            "disk_utilization": _mean(util["disk"]),
            # Mean per-port utilization (TX+RX) across the fabric.
            "network_utilization": _mean(ports) / 2,
            "messages": self.transport.stats.summary(),
        }


def build_cluster(
    config: Optional[ClusterConfig] = None,
    architecture: str = "raidx",
    env: Optional[Environment] = None,
    scheduler_policy: Optional[str] = None,
    locking: bool = False,
    cdd_mode: str = "inline",
    cdd_service_slots: int = 8,
    **system_kwargs,
) -> Cluster:
    """Assemble a cluster and attach the requested storage architecture.

    Parameters
    ----------
    config:
        Hardware/geometry configuration; defaults to the 12-node Trojans
        preset.
    architecture:
        One of ``raid0 | raid5 | raid10 | chained | raidx | nfs``.
    scheduler_policy:
        Per-disk queue discipline (``fifo | sstf | look``).
    locking:
        Enable the CDD lock-group protocol on writes.
    cdd_mode:
        ``"inline"`` (default) executes remote manager work inline —
        timing-equivalent to an unbounded server; ``"server"`` runs an
        explicit storage-manager process per node with
        ``cdd_service_slots`` concurrent service slots (server-side
        queueing becomes visible).
    system_kwargs:
        Extra arguments for the storage system (e.g. ``mirror_policy``
        for RAID-x, ``transfer_size`` for NFS).
    """
    from repro.cluster.systems import ARCHITECTURES, NfsSystem

    config = config or trojans_cluster()
    try:
        system_cls = ARCHITECTURES[architecture.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown architecture {architecture!r}; "
            f"choose from {sorted(ARCHITECTURES)}"
        ) from None
    cluster = Cluster(
        config,
        env=env,
        scheduler_policy=scheduler_policy,
        locking=locking,
        cdd_mode=cdd_mode,
        cdd_service_slots=cdd_service_slots,
    )
    if issubclass(system_cls, NfsSystem):
        cluster.storage = system_cls(cluster, **system_kwargs)
    else:
        cluster.storage = system_cls(cluster, locking=locking, **system_kwargs)
    return cluster
