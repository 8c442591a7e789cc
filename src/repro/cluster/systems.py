"""Storage systems: thin planner-binding shims over the shared engine.

Each architecture binds a pure planner (:mod:`repro.raid.planners`) —
which turns logical requests into declarative
:class:`~repro.raid.plan.IOPlan` values — to the one shared
:class:`~repro.cluster.engine.ExecutionEngine` that runs plans through
the CDDs.  The per-architecture write protocols of the paper's Table 2
(RAID-0 parallel stripes, RAID-10 write-through mirror waves, chained
declustering, RAID-5 read-modify-write vs. full-stripe parity, RAID-x
orthogonal data + background clustered mirror images) are therefore
plan-construction decisions — see the planner classes for the details.
NFS, the central-server baseline, keeps its own RPC loop here.
"""

from __future__ import annotations

from functools import cached_property
from operator import index
from typing import Set, Tuple

from repro.cache import CacheConfig
from repro.cluster.cache_stage import CacheStage
from repro.cluster.engine import ExecutionEngine
from repro.cluster.message import HEADER_BYTES, MessageKind
from repro.cluster.sios import SingleIOSpace
from repro.errors import AddressError, ConfigurationError, DegradedModeError
from repro.obs import runtime as _obs
from repro.obs.trace import REQUEST
from repro.raid import make_layout
from repro.raid.layout import Layout
from repro.raid.mirror_policy import MirrorPolicy
from repro.raid.planners import (
    ChainedPlanner,
    Planner,
    Raid0Planner,
    Raid10Planner,
    Raid5Planner,
    RaidxPlanner,
)
from repro.raid.plan import split_into_blocks
from repro.sim.events import Event
from repro.units import KiB


class StorageSystem:
    """Common interface of all storage back-ends."""

    name = "abstract"
    #: Whether the back-end stores redundancy (see :meth:`fail_disk`).
    redundant = True

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        self.failed_disks: Set[int] = set()
        self._n_nodes = len(cluster.nodes)
        # Logical bytes moved, split by op, for bandwidth accounting.
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    @property
    def capacity(self) -> int:
        raise NotImplementedError

    @property
    def block_size(self) -> int:
        raise NotImplementedError

    def io(self, client: int, op: str, offset: int, nbytes: int):
        """Process generator: execute one logical request end to end."""
        raise NotImplementedError

    def end_request(
        self, client: int, op: str, offset: int, nbytes: int, t0: float,
        trace, done: bool,
    ) -> None:
        """The request epilogue, at the instant a request ends: a
        completed (``done``) request's bytes, and the ``REQUEST`` span
        from ``t0`` when tracing is on."""
        if done:
            if op == "read":
                self.bytes_read += nbytes
            else:
                self.bytes_written += nbytes
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.record(
                REQUEST, f"node{client}.request", t0, self.env.now,
                trace=trace, op=op, offset=offset, nbytes=nbytes,
                arch=self.name,
            )

    def _check_request(
        self, client: int, op: str, offset: int, nbytes: int
    ) -> None:
        """The submit contract, checked before any counter or queue
        moves: ``op`` is ``"read"`` or ``"write"`` and ``client`` a node
        (else :class:`ValueError`), ``client``, ``offset`` and
        ``nbytes`` are integers (else :class:`TypeError`, NaN
        included), and the byte range lies inside the device (else
        :class:`~repro.errors.AddressError`)."""
        if op != "read" and op != "write":
            raise ValueError(f"op must be 'read' or 'write', not {op!r}")
        if not 0 <= index(client) < self._n_nodes:
            raise ValueError(f"client {client} outside [0, {self._n_nodes})")
        if index(offset) < 0 or index(nbytes) < 0 or (
            offset + nbytes > self._capacity
        ):
            raise AddressError(
                f"range [{offset}, {offset + nbytes}) outside the "
                f"{self._capacity}-byte {self.name} device"
            )

    @cached_property
    def _capacity(self) -> int:
        # Layouts and NFS exports are fixed at construction.
        return self.capacity

    def submit(self, client: int, op: str, offset: int, nbytes: int) -> Event:
        """Run :meth:`io` as a process; returns its completion event."""
        self._check_request(client, op, offset, nbytes)
        return self.env.process(self.io(client, op, offset, nbytes))

    def read(self, client: int, offset: int, nbytes: int) -> Event:
        return self.submit(client, "read", offset, nbytes)

    def write(self, client: int, offset: int, nbytes: int) -> Event:
        return self.submit(client, "write", offset, nbytes)

    def drain(self):
        """Process generator: wait for background work (no-op by default)."""
        return
        yield  # pragma: no cover

    def fail_disk(self, disk: int) -> None:
        """Fail a disk and remember it.  Non-redundant back-ends still
        mark the disk (subsequent I/O behaves consistently) but raise a
        typed :class:`DegradedModeError` — the failure is immediately
        unrecoverable."""
        self.failed_disks.add(disk)
        self.cluster.disk(disk).fail()
        if not self.redundant:
            raise DegradedModeError(self.name, disk)

    def repair_disk(self, disk: int) -> None:
        self.failed_disks.discard(disk)
        self.cluster.disk(disk).repair()


class DistributedArraySystem(StorageSystem):
    """Shared shim for the serverless (CDD-based) architectures: owns
    the layout/planner binding and configuration validation; all request
    execution lives in the :class:`ExecutionEngine`.

    ``read_policy`` selects among a block's surviving copies:
    ``"static"`` follows the layout's preference order (the paper's
    behaviour); ``"shortest_queue"`` picks the shallowest disk queue —
    the §7 load balancing, quantified by benchmark A5.
    """

    layout_name = "raid0"

    #: shortest_queue hysteresis: divert from the preferred copy only
    #: when the alternative's queue is this much shallower (a diverted
    #: read usually breaks the other disk's sequential run).
    read_balance_margin = 2

    #: Node-level fast-forward switch, the only one.  Cleared per
    #: instance by the first disk failure or by a fault injector, whose
    #: mid-window failures the closed form cannot reproduce exactly
    #: (DESIGN §6.14); tests and benchmarks set it on an instance, or on
    #: the class for systems a harness builds.
    node_ff = True

    def __init__(
        self,
        cluster,
        locking: bool = False,
        read_policy: str = "static",
        cache: CacheConfig | None = None,
    ):
        """``cache`` opts this system into the buffer-cache layer
        (DESIGN §6.17).  The default — no cache — leaves the request
        path byte-identical to the pre-cache engine."""
        super().__init__(cluster)
        cfg = cluster.config
        self.layout: Layout = make_layout(
            self.layout_name,
            n_disks=cfg.geometry.total_disks,
            block_size=cfg.geometry.block_size,
            disk_capacity=cfg.disk.capacity_bytes,
            stripe_width=cfg.geometry.n,
        )
        self.layout.verify_invariants()
        self.sios = SingleIOSpace(self.layout)
        self.locking = locking
        if read_policy not in ("static", "shortest_queue"):
            raise ConfigurationError(f"unknown read policy {read_policy!r}")
        self.read_policy = read_policy
        self.planner: Planner = self._make_planner()
        self.engine = ExecutionEngine(self)
        self.cache_config = cache
        if cache is not None:
            self.engine.cache = CacheStage(self.engine, cache)

    def _make_planner(self) -> Planner:
        raise NotImplementedError

    @property
    def redundant(self) -> bool:  # type: ignore[override]
        return self.layout.redundant

    @property
    def capacity(self) -> int:
        return self.sios.capacity

    @property
    def block_size(self) -> int:
        return self.sios.block_size

    def submit(self, client: int, op: str, offset: int, nbytes: int) -> Event:
        """Fast-forward a conflict-free request, else run the full path."""
        self._check_request(client, op, offset, nbytes)
        engine = self.engine
        if self.node_ff:
            done = engine.try_fast_submit(client, op, offset, nbytes)
            if done is not None:
                return done
        engine.phase_submits += 1
        proc = self.env.process(engine.run(client, op, offset, nbytes))
        engine.phase_inflight[client] += 1
        proc.callbacks.append(engine._phase_release[client])
        return proc

    def fail_disk(self, disk: int) -> None:
        # A read fast-forwarded into this disk is rescued through the
        # read retry; every later request takes the event-driven path.
        self.node_ff = False
        self.engine.ff_disk_failed(disk)
        super().fail_disk(disk)

    def drain(self):
        return self.engine.drain()

    @property
    def pending_background_flushes(self) -> int:
        return self.engine.pending_background_flushes

    def _read_source(self, client, piece):  # None = reconstruct
        return self.engine.read_source(client, piece)


class Raid0System(DistributedArraySystem):
    """Striping only — the bandwidth ceiling, zero fault tolerance."""

    name = "raid0"
    layout_name = "raid0"

    def _make_planner(self) -> Planner:
        return Raid0Planner(self.layout)


class Raid10System(DistributedArraySystem):
    """Striped mirroring over disk pairs, write-through mirror commit."""

    name = "raid10"
    layout_name = "raid10"

    def _make_planner(self) -> Planner:
        return Raid10Planner(self.layout)


class ChainedSystem(DistributedArraySystem):
    """Chained declustering: mirror of disk d lives on disk d+1."""

    name = "chained"
    layout_name = "chained"

    def _make_planner(self) -> Planner:
        return ChainedPlanner(self.layout)


class Raid5System(DistributedArraySystem):
    """Rotating parity with the small-write read-modify-write penalty."""

    name = "raid5"
    layout_name = "raid5"

    def __init__(
        self,
        cluster,
        locking: bool = False,
        full_stripe_optimization: bool = False,
        batch_rmw: bool = False,
        cache: CacheConfig | None = None,
    ):
        """``full_stripe_optimization`` computes parity for aligned
        full-stripe writes without pre-reads; ``batch_rmw`` amortizes
        one parity read/write over a request's blocks in a stripe.
        Both default off: the paper's measured software RAID-5 was
        per-block read-modify-write bound (Table 3); benchmark A4
        quantifies what each knob recovers."""
        self.full_stripe_optimization = full_stripe_optimization
        self.batch_rmw = batch_rmw
        super().__init__(cluster, locking, cache=cache)

    def _make_planner(self) -> Planner:
        return Raid5Planner(
            self.layout,
            full_stripe_optimization=self.full_stripe_optimization,
            batch_rmw=self.batch_rmw,
        )


class RaidxSystem(DistributedArraySystem):
    """RAID-x: orthogonal striping with background clustered mirroring."""

    name = "raidx"
    layout_name = "raidx"

    def __init__(self, cluster, locking: bool = False,
                 mirror_policy: MirrorPolicy | str = MirrorPolicy.BACKGROUND,
                 read_local_mirror: bool = False,
                 read_policy: str = "static",
                 cache: CacheConfig | None = None):
        self.mirror_policy = MirrorPolicy.parse(mirror_policy)
        self.read_local_mirror = read_local_mirror
        super().__init__(cluster, locking, read_policy=read_policy,
                         cache=cache)

    def _make_planner(self) -> Planner:
        return RaidxPlanner(
            self.layout,
            mirror_policy=self.mirror_policy,
            read_local_mirror=self.read_local_mirror,
        )

    #: Write-behind mirror state lives on the engine's MirrorState;
    #: these names stay readable on the system object for callers.
    _MIRROR_ATTRS = frozenset({
        "_pending_flushes", "_dirty_groups", "_queued_extents",
        "background_bytes", "coalesced_extents", "absorbed_rewrites",
        "vulnerability_windows",
    })

    def __getattr__(self, name: str):
        if name in RaidxSystem._MIRROR_ATTRS:
            return getattr(self.engine.mirror, name.lstrip("_"))
        raise AttributeError(name)

    def vulnerability_stats(self) -> dict:
        """Mean/max/p95 of the image-flush exposure windows (seconds)."""
        return self.engine.vulnerability_stats()


class NfsSystem(StorageSystem):
    """Central-server baseline: the server (node 0 by default) stripes
    its export RAID-0 style over its local disks; transfers move in
    rsize/wsize chunks (8 KiB, the NFSv2-over-UDP default of the
    paper's era), each a full RPC with user-level processing at both
    ends."""

    name = "nfs"
    redundant = False

    def __init__(
        self, cluster, server: int = 0, transfer_size: int = 8 * KiB,
        server_cache_mb: int = 128, stable_writes: bool = True,
    ):
        """``server_cache_mb`` models the server's buffer cache (0 =
        fully cold server); writes are stable per NFSv2 semantics.
        ``stable_writes=False`` models NFSv3 asynchronous writes
        (chunks pipeline like reads, commit deferred)."""
        super().__init__(cluster)
        if transfer_size <= 0:
            raise ConfigurationError("transfer size must be positive")
        self.server = server
        self.transfer_size = transfer_size
        self.stable_writes = stable_writes
        cfg = cluster.config
        self._server_disks = list(cluster.nodes[server].disk_ids)
        self._block_size = cfg.geometry.block_size
        self._rows = cfg.disk.capacity_bytes // self._block_size
        from repro.cache import BlockCache

        cache_blocks = (server_cache_mb * 1_000_000) // self._block_size
        self._cache = (
            BlockCache(server, capacity_blocks=cache_blocks)
            if cache_blocks > 0
            else None
        )

    @property
    def capacity(self) -> int:
        return self._rows * self._block_size * len(self._server_disks)

    @property
    def block_size(self) -> int:
        return self._block_size

    def _server_location(self, block: int) -> Tuple[int, int]:
        """(global disk id, byte offset) of an export block — RAID-0
        striping across the server's local disks."""
        width = len(self._server_disks)
        disk = self._server_disks[block % width]
        return disk, (block // width) * self._block_size

    def io(self, client: int, op: str, offset: int, nbytes: int):
        tracer = _obs.TRACER
        trace = tracer.new_trace() if tracer.enabled else None
        t0 = self.env.now
        pos = offset
        end = offset + nbytes
        if op == "write" and self.stable_writes:
            # NFSv2 stable writes: each chunk commits synchronously
            # before the next is issued — no client-side write-behind.
            while pos < end:
                take = min(self.transfer_size, end - pos)
                yield from self._rpc(client, op, pos, take, trace)
                pos += take
        else:
            chunks = []
            while pos < end:
                take = min(self.transfer_size, end - pos)
                chunks.append(self._rpc(client, op, pos, take, trace))
                pos += take
            if chunks:
                yield from self.env.fan_out(chunks)
        # A failed RPC propagates past the epilogue: no span.
        self.end_request(client, op, offset, nbytes, t0, trace, True)

    def _rpc(self, client: int, op: str, offset: int, nbytes: int,
             trace=None):
        transport = self.cluster.transport
        server_node = self.cluster.nodes[self.server]
        client_node = self.cluster.nodes[client]
        # Client-side user-level RPC processing.
        yield client_node.cpu.driver_entry(kernel_level=False)
        req_size = HEADER_BYTES + (nbytes if op == "write" else 0)
        yield from transport.message(
            MessageKind.RPC_REQ, client, self.server, req_size, trace=trace
        )
        # Server-side user-level processing + local disk I/O.
        yield server_node.cpu.driver_entry(kernel_level=False)
        for block, intra, take in split_into_blocks(
            offset, nbytes, self.block_size
        ):
            if op == "read" and self._cache is not None:
                if self._cache.lookup(block):
                    # Buffer-cache hit: a memory copy instead of disk I/O.
                    yield server_node.cpu.memcpy(take)
                    continue
            disk, disk_off = self._server_location(block)
            yield from server_node.disk_io(
                disk, op, disk_off + intra, take, trace=trace
            )
            if self._cache is not None:
                self._cache.insert(block)
        reply_size = HEADER_BYTES + (nbytes if op == "read" else 0)
        yield from transport.message(
            MessageKind.RPC_REPLY, self.server, client, reply_size,
            trace=trace,
        )


ARCHITECTURES = {
    "raid0": Raid0System,
    "raid5": Raid5System,
    "raid10": Raid10System,
    "chained": ChainedSystem,
    "raidx": RaidxSystem,
    "nfs": NfsSystem,
}
