"""Declarative I/O plans: the *what* of a request, separated from the *how*.

A planner (:mod:`repro.raid.planners`) turns one logical request —
``(op, offset, nbytes)`` plus the failed-disk set — into an
:class:`IOPlan`: an ordered DAG of :class:`PieceOp` leaves grouped by
structural nodes that encode each architecture's protocol shape
(parallel mirrored waves, serial write-through waves, per-stripe parity
transactions, orthogonal foreground-data/background-image splits).  The
plan carries placements, lock requirements and foreground/background
tags; it never touches the simulator.

Execution semantics (who filters what) are part of the schema contract:

* Plans are built from *geometry only* — every copy/parity op appears in
  the plan even when its disk is currently failed.  The execution engine
  (:mod:`repro.cluster.engine`) filters against the **live** failed set
  at each spawn point, because disks can fail while a request is waiting
  on a lock or an earlier wave.  This is what makes plans reusable and
  the planner pure.
* ``tolerant`` ops mark-and-continue when the disk dies mid-flight
  (redundancy keeps the block recoverable); non-tolerant ops propagate
  :class:`~repro.errors.DiskFailedError`.
* ``background=True`` tags work the client does not wait for (RAID-x
  image flushes under the background mirror policy).

Everything in this module is an immutable value — a frozen dataclass,
or a ``NamedTuple`` for the per-request hot types (:class:`Piece`,
:class:`ReadContext`), which cost about half as much to build: plans
are hashable values that can be compared, cached, and replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, List, NamedTuple, Optional, Tuple

from repro.raid.layout import Placement

#: Marker for ops that address redundancy rather than a logical block.
NO_BLOCK = -1


def split_into_blocks(
    offset: int, nbytes: int, block_size: int
) -> List[Tuple[int, int, int]]:
    """Split a byte range into (block_index, intra_offset, length) pieces.

    Pieces never cross block boundaries; partial first/last blocks are
    represented by a non-zero ``intra_offset`` / short ``length``.  A
    range inside one block (every block-aligned request) costs a single
    ``divmod``.  This is the one splitter: the planners, the cache stage
    and the NFS server all call it.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if nbytes < 0:
        raise ValueError("negative size")
    block, intra = divmod(offset, block_size)
    if intra + nbytes <= block_size:
        return [(block, intra, nbytes)] if nbytes else []
    out: List[Tuple[int, int, int]] = [(block, intra, block_size - intra)]
    pos = offset + block_size - intra
    end = offset + nbytes
    while pos < end:
        block += 1
        take = min(block_size, end - pos)
        out.append((block, 0, take))
        pos += take
    return out


class Piece(NamedTuple):
    """One block-aligned fragment of a logical request."""

    block: int  # logical data block index
    intra: int  # offset within the block
    nbytes: int  # fragment length (<= block_size)
    placement: Placement  # primary data placement

    @property
    def disk(self) -> int:
        return self.placement.disk

    @property
    def disk_offset(self) -> int:
        return self.placement.offset + self.intra


@dataclass(frozen=True)
class PieceOp:
    """One physical disk operation — the leaf of every plan.

    ``kind`` tags the op's role in the protocol (``data`` / ``parity``
    / ``mirror`` / ``reconstruct``); ``block`` is the logical data block
    the op serves, or :data:`NO_BLOCK` for shared redundancy (parity,
    clustered image extents).
    """

    op: str  # "read" | "write"
    disk: int
    offset: int
    nbytes: int
    kind: str = "data"
    block: int = NO_BLOCK
    tolerant: bool = False  # mark-and-continue on mid-flight failure
    priority: int = 0  # disk-scheduler priority class
    background: bool = False  # client does not wait for this op


@dataclass(frozen=True)
class ReconstructRead:
    """Rebuild a lost block from surviving peers (RAID-5 degraded read):
    read the stripe's surviving data + parity, then XOR in memory."""

    reads: Tuple[PieceOp, ...]
    xor_bytes: int


@dataclass(frozen=True)
class CopySet:
    """A block and the disks holding all its copies (data + mirrors) —
    the unit of the mirrored systems' survival checks."""

    block: int
    disks: Tuple[int, ...]


@dataclass(frozen=True)
class MirroredPieceWrite:
    """All copies of one piece, issued in one parallel burst.

    ``skip_failed``: drop copies whose disk is failed at issue time
    (redundant layouts); when false, every op is issued as planned and a
    failed disk surfaces as :class:`~repro.errors.DiskFailedError`
    (RAID-0).  ``require_alive``: raise
    :class:`~repro.errors.DataLossError` at issue time when every copy
    disk is failed (the mirrored systems' fail-fast), evaluated *per
    piece, in plan order* — earlier pieces' writes are already in
    flight when a later piece fails the check, exactly as the pre-plan
    protocol behaved.
    """

    block: int
    ops: Tuple[PieceOp, ...]
    skip_failed: bool = True
    require_alive: bool = True


@dataclass(frozen=True)
class ParallelWrite:
    """Parallel write protocol (RAID-0, chained declustering).

    One burst of every surviving copy of every piece, one join, then an
    optional post-join survival re-check (copies can die mid-write; the
    tolerant ops absorb the error, the check decides if data survived).
    """

    pieces: Tuple[MirroredPieceWrite, ...]
    copies: Tuple[CopySet, ...] = ()
    check_survivors: bool = False


@dataclass(frozen=True)
class SerialWrite:
    """Write-through mirroring (RAID-10): the primary wave commits
    before the mirror wave is issued.  Survival is checked before the
    first wave and re-checked after the last."""

    copies: Tuple[CopySet, ...]
    waves: Tuple[Tuple[PieceOp, ...], ...]


@dataclass(frozen=True)
class FullStripePass:
    """Full-stripe parity write: XOR in memory, no pre-reads."""

    xor_bytes: int
    writes: Tuple[PieceOp, ...]
    parity_write: PieceOp


@dataclass(frozen=True)
class RmwPass:
    """One read-modify-write parity update: read old data + old parity,
    two XOR passes, write new data + new parity.  ``parity_read`` /
    ``parity_write`` cover the union of the modified intra-block ranges
    (parity bytes pair with data bytes positionally)."""

    reads: Tuple[PieceOp, ...]
    parity_read: PieceOp
    xor_bytes: int
    writes: Tuple[PieceOp, ...]
    parity_write: PieceOp


@dataclass(frozen=True)
class StripeWrite:
    """One stripe's share of a RAID-5 write — a lock-protected
    transaction: either a single full-stripe pass or a sequence of
    read-modify-write passes (one per modified block, or one batched
    pass, a plan-construction decision)."""

    stripe: int
    parity_disk: int
    full_stripe: Optional[FullStripePass] = None
    rmw_passes: Tuple[RmwPass, ...] = ()


@dataclass(frozen=True)
class ParityWrite:
    """RAID-5 write protocol: independent per-stripe transactions,
    each run as its own process under its stripe lock."""

    stripes: Tuple[StripeWrite, ...]


@dataclass(frozen=True)
class ImageExtent:
    """One clustered mirror-image run on an image disk (RAID-x):
    fragments of a mirror group coalesced into a single long write."""

    group: int  # mirror-group id (stale-image bookkeeping)
    disk: int
    offset: int
    nbytes: int


@dataclass(frozen=True)
class OrthogonalWrite:
    """RAID-x OSM write: foreground data block writes striped across
    all disks, image fragments coalesced into clustered extents and
    flushed in the background (or foreground, per mirror policy)."""

    foreground: Tuple[PieceOp, ...]
    extents: Tuple[ImageExtent, ...]
    background: bool  # True = deferred image flush (write-behind)


@dataclass(frozen=True)
class IOPlan:
    """A complete, declarative plan for one logical request."""

    arch: str
    op: str  # "read" | "write"
    offset: int
    nbytes: int
    pieces: Tuple[Piece, ...]
    #: Blocks whose lock groups a locking write must hold.
    lock_blocks: Tuple[int, ...] = ()
    #: One of the write protocol nodes; ``None`` for reads (the engine
    #: reads each piece through the read-source policy) and for empty
    #: requests.
    action: object = None


@dataclass(frozen=True)
class WriteContext:
    """Cache state a planner may consult when shaping a write plan.

    Passed *into* the pure planner by the engine's cache stage when a
    destage is planned: ``absorbed`` names the blocks whose pre-write
    content the buffer cache can supply, so a parity planner may drop
    those blocks' old-data pre-reads from its read-modify-write passes
    (RMW absorption).  The parity read and both XOR passes stay — only
    the redundant old-data disk reads disappear.
    """

    absorbed: AbstractSet[int] = field(default_factory=frozenset)


class ReadContext(NamedTuple):
    """Runtime state a planner may consult when ranking read sources.

    Passed *into* the pure planner by the engine on every attempt: the
    reading client (locality decisions), the set of mirror groups
    whose image is not yet consistent (write-behind staleness guard),
    and whether the engine's read policy balances across copies.  When
    it does not, the engine reads the first candidate, so a planner may
    return that copy alone.
    """

    client: int
    dirty_groups: AbstractSet[int] = frozenset()
    balancing: bool = True
