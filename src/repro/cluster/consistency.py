"""Data-consistency module: the replicated lock-group table.

The paper (§4): "Each record in this table corresponds to a group of
data blocks that have been granted to a specific CDD client with write
permissions.  The write locks in each record are granted and released
atomically.  This lock-group table is replicated among the data
consistency modules in the CDDs."

Model: block groups hash to a *home* CDD that orders grant/release for
the group; the grant is then (optionally) broadcast to the other
replicas.  Acquiring a group held by another client blocks FIFO.  All
grant traffic uses small control messages at kernel level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.message import ACK_BYTES, MessageKind
from repro.errors import LockProtocolError
from repro.obs import runtime as _obs
from repro.obs.trace import LOCK_WAIT
from repro.sim.core import Environment
from repro.sim.sync import Mutex


@dataclass
class LockRecord:
    """One lock-group table record: a granted block group."""

    group: int
    owner_node: int
    granted_at: float


class LockGroupTable:
    """The replicated table of granted write-lock groups.

    Every CDD holds a replica; in the simulation all replicas share this
    object (replication cost is charged as messages by the manager), and
    the table tracks what each replica would contain.
    """

    def __init__(self) -> None:
        self._records: Dict[int, LockRecord] = {}
        self.grants = 0
        self.releases = 0

    def record_grant(self, group: int, owner: int, now: float) -> None:
        if group in self._records:
            raise LockProtocolError(
                f"group {group} already granted to node "
                f"{self._records[group].owner_node}"
            )
        self._records[group] = LockRecord(group, owner, now)
        self.grants += 1

    def record_release(self, group: int, owner: int) -> None:
        rec = self._records.get(group)
        if rec is None or rec.owner_node != owner:
            raise LockProtocolError(
                f"release of group {group} not held by node {owner}"
            )
        del self._records[group]
        self.releases += 1

    def holder(self, group: int) -> Optional[int]:
        rec = self._records.get(group)
        return rec.owner_node if rec else None

    def __len__(self) -> int:
        return len(self._records)


class DistributedLockManager:
    """Grant/release write-lock groups with home-node ordering.

    ``lock_group_blocks`` logical blocks form one lockable group; the
    home CDD of group ``g`` is node ``g mod n``.
    """

    def __init__(
        self,
        env: Environment,
        transport,
        n_nodes: int,
        lock_group_blocks: int = 64,
        broadcast_grants: bool = False,
    ):
        self.env = env
        self.transport = transport
        self.n_nodes = n_nodes
        self.lock_group_blocks = lock_group_blocks
        self.broadcast_grants = broadcast_grants
        self.table = LockGroupTable()
        self._mutexes: Dict[int, Mutex] = {}

    # -- addressing ------------------------------------------------------
    def group_of_block(self, block: int) -> int:
        return block // self.lock_group_blocks

    def groups_for_blocks(self, blocks) -> List[int]:
        """Sorted, deduplicated lock groups covering ``blocks`` —
        sorted order gives global acquisition order (deadlock freedom)."""
        return sorted({self.group_of_block(b) for b in blocks})

    def home_of_group(self, group: int) -> int:
        return group % self.n_nodes

    def _mutex(self, group: int) -> Mutex:
        m = self._mutexes.get(group)
        if m is None:
            m = Mutex(self.env)
            self._mutexes[group] = m
        return m

    # -- protocol ----------------------------------------------------------
    def acquire(self, client: int, blocks, trace=None) -> "object":
        """Process generator: acquire write locks on all groups covering
        ``blocks`` in global order; returns an opaque handle for release."""
        groups = self.groups_for_blocks(blocks)
        held: List[Tuple[int, object]] = []
        tracer = _obs.TRACER
        try:
            for g in groups:
                home = self.home_of_group(g)
                if home != client:
                    yield from self.transport.message(
                        MessageKind.LOCK_REQ, client, home, ACK_BYTES,
                        trace=trace,
                    )
                # Ownership of the request moves into `held` the moment
                # it exists: the rollback below is then the single place
                # that can ever abandon a grant mid-protocol.
                req = self._mutex(g).acquire(owner=client)
                held.append((g, req))
                t0 = self.env.now
                yield req
                if tracer.enabled:
                    tracer.record(
                        LOCK_WAIT, f"node{home}.lock", t0, self.env.now,
                        trace=trace, group=g, client=client,
                    )
                self.table.record_grant(g, client, self.env.now)
                if home != client:
                    yield from self.transport.message(
                        MessageKind.LOCK_GRANT, home, client, ACK_BYTES,
                        trace=trace,
                    )
                if self.broadcast_grants:
                    # Replicate the record to the other consistency modules.
                    for peer in range(self.n_nodes):
                        if peer not in (home, client):
                            self.transport.send(
                                MessageKind.LOCK_GRANT, home, peer, ACK_BYTES,
                                trace=trace,
                            )
        except BaseException:
            # Atomic grant (§4): a failure mid-protocol may not strand
            # the groups already granted.  Undo the table records and
            # release (or cancel) every request, newest first, then let
            # the failure propagate to the caller.
            for g, req in reversed(held):
                if self.table.holder(g) == client:
                    self.table.record_release(g, client)
                self._mutex(g).release(req)
            raise
        return LockHandle(client, held)

    def release(self, handle: "LockHandle", trace=None):
        """Process generator: release all groups of ``handle``."""
        for g, req in reversed(handle.held):
            self.table.record_release(g, handle.client)
            self._mutex(g).release(req)
            home = self.home_of_group(g)
            if home != handle.client:
                # Release notification rides an async control message.
                self.transport.send(
                    MessageKind.LOCK_RELEASE, handle.client, home, ACK_BYTES,
                    trace=trace,
                )
        handle.held = []
        return
        yield  # pragma: no cover - keeps this a generator


@dataclass
class LockHandle:
    """Opaque receipt for a set of granted lock groups."""

    client: int
    held: List[Tuple[int, object]] = field(default_factory=list)

    @property
    def groups(self) -> List[int]:
        return [g for g, _ in self.held]
