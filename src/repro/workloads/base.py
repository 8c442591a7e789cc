"""Workload base machinery: barrier-synchronized clients and results.

Clients mimic the paper's methodology: MPI processes that synchronize
with ``MPI_Barrier()`` and then issue I/O through ``read()``/``write()``
loops — modeled as block-sized sub-requests with a bounded number in
flight per client (``queue_depth``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.sync import Barrier
from repro.units import MB


@dataclass
class WorkloadResult:
    """Outcome of one timed workload run."""

    name: str
    clients: int
    bytes_per_client: float
    started_at: float
    finished_at: float
    per_client_finish: Dict[int, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def total_bytes(self) -> float:
        return self.bytes_per_client * self.clients

    @property
    def aggregate_bandwidth_mb_s(self) -> float:
        if self.elapsed <= 0:
            return math.nan
        return self.total_bytes / 1e6 / self.elapsed

    @property
    def per_client_bandwidth_mb_s(self) -> float:
        return self.aggregate_bandwidth_mb_s / max(1, self.clients)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"{self.name}: {self.clients} clients, "
            f"{self.aggregate_bandwidth_mb_s:.2f} MB/s aggregate "
            f"in {self.elapsed:.3f}s"
        )


class ClientWorkload:
    """Base class: N clients on the cluster, barrier start, timed run.

    Subclasses implement :meth:`client_body` (a process generator for one
    client, run after the start barrier).
    """

    name = "workload"

    def __init__(self, cluster, clients: int):
        if clients < 1:
            raise ValueError("need at least one client")
        self.cluster = cluster
        self.env = cluster.env
        self.clients = clients
        self._finish: Dict[int, float] = {}

    # -- hooks -------------------------------------------------------------
    def node_of_client(self, client: int) -> int:
        """Clients beyond the node count wrap around (paper runs up to
        32 Andrew clients on 12 nodes)."""
        return client_node(self.cluster, client)

    def prepare(self):
        """Untimed setup phase (process generator); default no-op."""
        return
        yield  # pragma: no cover

    def client_body(self, client: int):
        """The timed work of one client (process generator)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def bytes_per_client(self) -> float:
        """Logical bytes each client moves in the timed phase."""
        return 0.0

    def extras(self) -> Dict[str, float]:
        """Extra metrics for the result (override freely)."""
        return {}

    # -- driver -----------------------------------------------------------
    def run(self) -> WorkloadResult:
        """Prepare, run all clients to completion, return the result."""
        env = self.env
        # Untimed preparation (file creation, cache warm-up, drain).
        env.run(env.process(self._prepare_wrapper()))
        started = env.now
        barrier = Barrier(env, self.clients)
        procs = [
            env.process(self._client_wrapper(i, barrier))
            for i in range(self.clients)
        ]
        env.run(env.all_of(procs))
        return WorkloadResult(
            name=self.name,
            clients=self.clients,
            bytes_per_client=self.bytes_per_client(),
            started_at=started,
            finished_at=max(self._finish.values(), default=env.now),
            per_client_finish=dict(self._finish),
            extras=self.extras(),
        )

    def _prepare_wrapper(self):
        yield from self.prepare()
        storage = self.cluster.storage
        if storage is not None:
            yield from storage.drain()

    def _client_wrapper(self, client: int, barrier: Barrier):
        yield barrier.wait()
        yield from self.client_body(client)
        self._finish[client] = self.env.now


def chunked_io(storage, client: int, op: str, offset: int, nbytes: int,
               chunk: int, queue_depth: int):
    """Process generator: a ``read()``/``write()`` syscall loop.

    Issues ``chunk``-sized requests keeping at most ``queue_depth`` in
    flight — depth 1 is a strictly sequential loop; larger depths model
    kernel read-ahead / write-behind.
    """
    if chunk <= 0 or queue_depth < 1:
        raise ValueError("chunk and queue_depth must be positive")
    env = storage.env
    inflight: List = []
    pos = offset
    end = offset + nbytes
    while pos < end:
        take = min(chunk, end - pos)
        inflight.append(storage.submit(client, op, pos, take))
        pos += take
        if len(inflight) >= queue_depth:
            # Wait for the oldest request (FIFO completion window).
            first = inflight.pop(0)
            yield first
    for ev in inflight:
        yield ev


def client_pool(cluster) -> List[int]:
    """The nodes clients wrap around, in order: client ``i`` runs on
    ``pool[i % len(pool)]``.

    Under NFS the server node is excluded (the paper's NFS runs used a
    dedicated server, so client processes never short-circuit the RPC
    path via loopback).
    """
    from repro.cluster.systems import NfsSystem

    storage = cluster.storage
    n = cluster.n_nodes
    if isinstance(storage, NfsSystem) and n > 1:
        return [i for i in range(n) if i != storage.server]
    return list(range(n))


def client_node(cluster, client: int) -> int:
    """Map a client index to a cluster node (see :func:`client_pool`)."""
    pool = client_pool(cluster)
    return pool[client % len(pool)]


#: Default spacing between per-client private files on the virtual disk.
DEFAULT_FILE_SPACING = 8 * MB
