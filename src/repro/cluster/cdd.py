"""Cooperative disk drivers (CDDs).

Each node runs one CDD made of the paper's three modules:

* **client module** — redirects block I/O on any disk of the single I/O
  space; local disks go straight to the SCSI path, remote disks ride the
  CDD request/reply protocol at kernel level (no cross-space system
  calls, no central server);
* **storage manager** — serves incoming requests against the node's
  local disks; in the simulation the manager's work is executed inline
  by the requesting process against the owner node's shared resources
  (CPU, SCSI bus, disk queues), which yields identical contention timing
  to an explicit server loop;
* **consistency module** — the replicated lock-group table, shared with
  the other CDDs via :class:`repro.cluster.consistency.DistributedLockManager`.
"""

from __future__ import annotations

from typing import List

from repro.cluster.message import (
    MessageKind,
    read_reply_size,
    read_request_size,
    write_ack_size,
    write_request_size,
)
from repro.cluster.transport import Transport
from repro.hardware.node import Node
from repro.io.context import PieceContext
from repro.obs import runtime as _obs
from repro.obs.trace import CPU_DRIVER


class CooperativeDiskDriver:
    """One node's CDD: client module + storage manager + consistency."""

    def __init__(
        self,
        node: Node,
        nodes: List[Node],
        transport: Transport,
        lock_manager=None,
        manager_servers=None,
    ):
        """``manager_servers``: optional per-node explicit storage-manager
        servers (see :mod:`repro.cluster.manager`).  When absent, remote
        manager work executes inline against the owner node's resources —
        timing-equivalent to an unbounded-concurrency server."""
        self.node = node
        self.nodes = nodes
        self.transport = transport
        self.lock_manager = lock_manager
        self.manager_servers = manager_servers
        #: Ops served by this CDD acting as a storage manager for peers.
        self.served_remote_ops = 0
        #: Ops this CDD's client module issued (local + remote).
        self.issued_ops = 0

    @property
    def node_id(self) -> int:
        return self.node.node_id

    def owner_of(self, disk: int) -> int:
        """The node driving a global disk id (Fig. 3 numbering)."""
        return disk % len(self.nodes)

    # -- client module -----------------------------------------------------
    def block_io(
        self, op: str, disk: int, offset: int, nbytes: int, priority: int = 0,
        trace=None, ctx: PieceContext | None = None,
    ):
        """Process generator: one block operation anywhere in the SIOS.

        Completes when the data is on disk (write) or delivered to this
        node (read).  ``ctx`` is the per-piece execution context the
        plan executor threads through the stack (trace id, plan step,
        retry budget); ``trace`` remains for callers outside the plan
        path and wins when both are given.  Either way the trace id
        propagates to every span the hop records (CPU, NIC, SCSI,
        disk).
        """
        if trace is None and ctx is not None:
            trace = ctx.trace
        self.issued_ops += 1
        node = self.node
        me = node.node_id
        owner = disk % len(self.nodes)  # owner_of(disk)
        transport = self.transport
        if owner == me:
            transport.stats.local_block_ops += 1
        else:
            transport.stats.remote_block_ops += 1
        # The kernel driver entry on this node, local and remote alike.
        tracer = _obs.TRACER
        t0 = node.env._now
        yield node.cpu.driver_entry()
        if tracer.enabled:
            tracer.record(
                CPU_DRIVER, f"node{me}.cpu", t0, node.env._now, trace=trace,
            )
        if owner == me:
            yield from node.disk_io(
                disk, op, offset, nbytes, priority, trace=trace
            )
            return

        # Remote path: request message -> manager work -> reply message.
        if op == "read":
            req, req_size = MessageKind.READ_REQ, read_request_size()
            rep, rep_size = MessageKind.READ_REPLY, read_reply_size(nbytes)
        else:
            req, req_size = MessageKind.WRITE_REQ, write_request_size(nbytes)
            rep, rep_size = MessageKind.WRITE_ACK, write_ack_size()
        yield from transport.message(req, me, owner, req_size, trace)
        yield from self._manage(
            owner, op, disk, offset, nbytes, priority, trace
        )
        yield from transport.message(rep, owner, me, rep_size, trace)

    def submit(
        self, op: str, disk: int, offset: int, nbytes: int, priority: int = 0,
        trace=None, ctx: PieceContext | None = None,
    ):
        """Run :meth:`block_io` as a process; returns its completion event."""
        return self.node.env.process(
            self.block_io(op, disk, offset, nbytes, priority, trace, ctx)
        )

    # -- storage manager -----------------------------------------------------
    def _manage(
        self, owner: int, op: str, disk: int, offset: int, nbytes: int,
        priority: int, trace=None,
    ):
        """The remote storage manager's share of a request."""
        if self.manager_servers is not None:
            yield self.manager_servers[owner].submit(
                op, disk, offset, nbytes, priority=priority,
                client=self.node_id, trace=trace,
            )
            return
        manager_node = self.nodes[owner]
        tracer = _obs.TRACER
        t0 = manager_node.env._now
        yield manager_node.cpu.driver_entry()
        if tracer.enabled:
            tracer.record(
                CPU_DRIVER, f"node{manager_node.node_id}.cpu", t0,
                manager_node.env._now, trace=trace,
            )
        yield from manager_node.disk_io(
            disk, op, offset, nbytes, priority, trace=trace
        )

    # -- consistency module ---------------------------------------------------
    def acquire_write_locks(self, blocks, trace=None):
        """Process generator: lock the groups covering ``blocks``."""
        if self.lock_manager is None:
            return None
        handle = yield from self.lock_manager.acquire(
            self.node_id, blocks, trace=trace
        )
        return handle

    def release_write_locks(self, handle, trace=None):
        """Process generator: release locks acquired earlier."""
        if self.lock_manager is None or handle is None:
            return
        yield from self.lock_manager.release(handle, trace=trace)
