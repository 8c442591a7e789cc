"""The shared execution engine: one executor for every IOPlan.

The per-architecture planners (:mod:`repro.raid.planners`) decide the
*structure* of a request; this engine owns everything that runs —
simulator processes, tracing spans, tolerant-write semantics, lock
acquisition with guaranteed release, degraded fallback, and the RAID-x
write-behind mirror state.  Every storage architecture executes through
the same code paths, so cross-cutting features (batching, caching,
tracing) are implemented once.

Timing fidelity contract: the engine schedules *exactly* the simulator
events, in exactly the order, that the per-system protocol bodies it
replaced did.  The event heap breaks ties by creation sequence, so the
number and order of ``env.process`` spawns is behaviour — which is why
plan ops are filtered against the live failed-disk set here, at each
spawn point, rather than at plan time (a disk can fail while a request
waits on a lock or an earlier wave).  The golden equivalence suite
(``tests/cluster/test_engine_equivalence.py``) pins this contract.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.errors import DataLossError, DiskFailedError, ReproError
from repro.hardware.node import FFSpanSynth
from repro.io.context import PieceContext
from repro.obs import runtime as _obs
from repro.obs.trace import LOCK_WAIT, MIRROR_FLUSH
from repro.raid.layout import Placement
from repro.raid.plan import (
    ImageExtent,
    OrthogonalWrite,
    ParallelWrite,
    ParityWrite,
    Piece,
    PieceOp,
    ReadContext,
    ReconstructRead,
    SerialWrite,
    StripeWrite,
    WriteContext,
)
from repro.sim.events import Event
from repro.sim.sync import Mutex


class MirrorState:
    """Runtime state of RAID-x write-behind mirroring.

    Owned by the engine (it is execution state, not geometry): the
    outstanding background flushes, the stale-image guard, the
    absorption buffer, and the deferral-cost accounting.
    """

    def __init__(self) -> None:
        #: Outstanding background image-flush events.
        self.pending_flushes: List[Event] = []
        #: Mirror groups with an un-flushed image (stale-image guard).
        self.dirty_groups: Set[int] = set()
        #: Extents queued but not yet issued to disk — rewrites of the
        #: same extent are absorbed in the write-behind buffer.
        self.queued_extents: Set[Tuple[int, int, int]] = set()
        self.background_bytes = 0.0
        self.coalesced_extents = 0
        self.absorbed_rewrites = 0
        #: Vulnerability windows: seconds each image extent spent
        #: un-flushed after its data committed — the price of deferral
        #: (a data-disk failure inside the window costs redundancy,
        #: though never the data itself).
        self.vulnerability_windows: List[float] = []


#: A fast-path resolution: the one local disk op ``(disk, op, offset,
#: nbytes, priority)``, or the named reason to fall back.
_Resolution = Union[Tuple[int, str, int, int, int], str]

#: Bound on the fast-path write-plan memo.  Million-request open-loop
#: sweeps with unique offsets would otherwise grow ``_ff_plans`` without
#: limit; at the cap the oldest entry is dropped in O(1) by
#: ``OrderedDict.popitem(last=False)`` (finding a plain dict's oldest
#: key rescans the deleted slots at its head), and an eviction only
#: costs a re-plan if that exact request shape recurs.  Reads never
#: enter the memo: their resolution is a ``divmod`` and one placement
#: lookup (:meth:`ExecutionEngine._resolve_read`), cheaper than a miss.
#: ``1 << 15`` (32,768) keeps a whole default open-loop region
#: resident for owner-local writes (``placement="local"``) — 512 MB /
#: 32 KiB = 15,624 blocks — so such a workload never evicts.  The key
#: includes the client, and a remote write's fall-back decision is
#: memoized too, so traffic from many clients per block (round-robin or
#: random placement) can need up to ``n_nodes`` keys per block, and
#: still evicts.  A resolved entry (key tuple, result tuple,
#: ordered-dict link) measures about 300 B, so a full memo holds about
#: 10 MB.
_FF_PLAN_CAP = 1 << 15


class _PhaseRelease:
    """Completion hook decrementing a client's in-flight phase count."""

    __slots__ = ("counts", "client")

    def __init__(self, counts: List[int], client: int) -> None:
        self.counts = counts
        self.client = client

    def __call__(self, _event: Event) -> None:
        self.counts[self.client] -= 1


class _FastFinish:
    """Completion hook for a fast-forwarded request: the byte accounting
    that the phase path's epilogue (``StorageSystem.end_request``)
    performs at the same simulated instant.  It also names the request, so
    a disk failure inside the priced window can hand the read to the
    retry (:meth:`ExecutionEngine.ff_disk_failed`)."""

    __slots__ = ("system", "client", "op", "offset", "nbytes")

    def __init__(
        self, system, client: int, op: str, offset: int, nbytes: int
    ) -> None:
        self.system = system
        self.client = client
        self.op = op
        self.offset = offset
        self.nbytes = nbytes

    def __call__(self, event: Event) -> None:
        if event._ok:
            if self.op == "read":
                self.system.bytes_read += self.nbytes
            else:
                self.system.bytes_written += self.nbytes


class ExecutionEngine:
    """Executes any :class:`~repro.raid.plan.IOPlan` through the CDDs."""

    def __init__(self, system) -> None:
        self.system = system
        self.cluster = system.cluster
        self.env = system.env
        self.planner = system.planner
        #: The system's live failed-disk set — the same set object,
        #: which the system only ever mutates in place.
        self.failed_disks: Set[int] = system.failed_disks
        self.block_size: int = system.layout.block_size
        #: Per-stripe mutexes serializing parity read-modify-write.
        self._stripe_locks: Dict[int, Mutex] = {}
        self.mirror = MirrorState()
        #: The buffer-cache admission/lookup stage
        #: (:class:`~repro.cluster.cache_stage.CacheStage`), attached by
        #: the system when a cache is configured.  ``None`` — the
        #: default — leaves every path below byte-identical to the
        #: cache-less engine.
        self.cache = None
        #: Requests served by :meth:`try_fast_submit` (fast-forward hits).
        self.fast_submits = 0
        #: Always 0: a cached request never fast-forwards.  The
        #: benchmark harness (``perfbench/suite.py``) still reads both.
        self.fast_hits = self.fast_fills = 0
        #: Requests that took the event-driven phase path instead.
        self.phase_submits = 0
        #: FIFO evictions from the bounded ``_ff_plans`` memo.
        self.ff_plan_evictions = 0
        #: Fast-path fallbacks by reason, one count per refused request
        #: (the node's own refusals are in ``Node.ff_fallbacks``).
        self.ff_fallbacks: Counter = Counter()
        #: Per-client count of event-driven requests still in flight.
        #: A phase request claims its client's CPU from a deferred
        #: Initialize event (and again at completion resumes), so its
        #: claims can be pending-but-invisible to the link ``outstanding``
        #: counters at the current instant; the fast path must not jump
        #: ahead of them (DESIGN §6.14).
        n = len(self.cluster.nodes)
        self.phase_inflight: List[int] = [0] * n
        self._phase_release = [
            _PhaseRelease(self.phase_inflight, c) for c in range(n)
        ]
        #: Per-client read contexts.  Each holds the live dirty-group
        #: set, which mirror state only ever mutates in place.
        self._read_ctx = [
            ReadContext(
                c, self.mirror.dirty_groups, system.read_policy != "static"
            )
            for c in range(n)
        ]
        self._n_nodes = n
        self._data_location = system.layout.data_location
        #: Memoized fast-path write resolutions.  With no failed disks
        #: (the only state the fast path accepts) the planner's answer
        #: for a (client, offset, nbytes) write is a pure function of
        #: the key, so the resolved single-piece op — or the decision to
        #: fall back — can be replayed without re-planning.
        self._ff_plans: OrderedDict[Tuple[int, int, int], _Resolution] = (
            OrderedDict()
        )

    # -- plumbing ----------------------------------------------------------
    def cdd(self, node: int):
        return self.cluster.cdds[node]

    def _issue_gen(self, client: int, pop: PieceOp, trace):
        """The process generator behind one plan op.

        Tolerant ops absorb a mid-flight disk failure by marking the
        disk failed (redundancy keeps the block recoverable); plain ops
        propagate :class:`~repro.errors.DiskFailedError`.  Executors
        collect these for ``Environment.fan_out``.
        """
        ctx = PieceContext(trace=trace, step=pop.kind)
        block_io = self.cluster.cdds[client].block_io
        if pop.tolerant:

            def body():
                try:
                    yield from block_io(
                        pop.op, pop.disk, pop.offset, pop.nbytes,
                        pop.priority, ctx=ctx,
                    )
                except DiskFailedError as e:
                    self.failed_disks.add(e.disk_id)

            return body()
        return block_io(
            pop.op, pop.disk, pop.offset, pop.nbytes, pop.priority, ctx=ctx,
        )

    # -- submit-time fast path ---------------------------------------------
    def try_fast_submit(
        self, client: int, op: str, offset: int, nbytes: int
    ) -> Optional[Event]:
        """Closed-form execution of a conflict-free single-piece request.

        The submit-time twin of :meth:`run`: when the request is
        lock-free, single-piece, served by a local disk under the
        static read policy, and the owner node's whole pipeline is
        idle, the node fast-forward (:meth:`Node.try_fast_forward`)
        prices the hop chain analytically; this method adds the engine's
        own bookkeeping (op counters at submit, byte accounting at
        completion) at the same points the phase path would.  Returns
        the completion event, or ``None`` to fall back — a fallback
        charges nothing and counts only its reason (``ff_fallbacks``).

        Tracing no longer forces a fallback: an armed
        :class:`~repro.hardware.node.FFSpanSynth` replays the phase
        path's trace-id allocation and span records at the same event
        pops, so the span stream stays byte-identical (DESIGN §6.15).
        """
        if self.cache is not None:
            # A cached request always takes the event-driven path
            # (DESIGN §6.18).
            return self._fall_back("cached")
        system = self.system
        if self.failed_disks:
            return self._fall_back("failed_disk")
        if self.phase_inflight[client]:
            # An event-driven request from this client is in flight; its
            # next claim on this node may still sit in the queue where
            # the idle-pipeline predicate cannot see it.
            return self._fall_back("client_phase_inflight")
        if system.locking:
            # A same-instant locking write charges its lock-request CPU
            # at its request Initialize, ahead of a read's piece claim;
            # a fast read would already hold the CPU (DESIGN §6.14).
            return self._fall_back("locking")
        if not nbytes:
            return self._fall_back("zero_length")  # no piece to price
        bs = self.block_size
        if offset % bs + nbytes > bs:
            return self._fall_back("spans_blocks")  # never one piece
        if op == "read":
            resolved = self._resolve_read(client, offset, nbytes)
        else:
            resolved = self._ff_resolved(client, offset, nbytes)
        if isinstance(resolved, str):
            return self._fall_back(resolved)
        disk, io_op, io_offset, io_nbytes, priority = resolved
        synth = (
            FFSpanSynth(
                self.env, client, op, offset, nbytes, io_nbytes, system.name
            )
            if _obs.TRACER.enabled
            else None
        )
        done = self.cluster.nodes[client].try_fast_forward(
            disk, io_op, io_offset, io_nbytes, priority, synth
        )
        if done is None:
            return None
        cdd = self.cluster.cdds[client]
        cdd.issued_ops += 1
        cdd.transport.stats.local_block_ops += 1
        self.fast_submits += 1
        done.callbacks.append(_FastFinish(system, client, op, offset, nbytes))
        return done

    def _fall_back(self, reason: str) -> None:
        """Count one fast-path fallback under ``reason``; the phase path
        serves the request."""
        self.ff_fallbacks[reason] += 1
        return None

    def ff_disk_failed(self, disk_id: int) -> None:
        """Rescue a fast-forwarded read that ``disk_id``'s failure
        catches inside its priced window.

        The uncached fast path hands the workload the preloaded disk
        request's own completion event, which the disk would fail.  The
        request gets a private event instead, and a rescue process waits
        out the disk's verdict, re-reads through :meth:`_read_piece` as
        the phase path's piece would (a surviving copy, or a
        reconstruction, now that the disk is in the failed set), and
        completes the workload's event.
        """
        req = self.cluster.disk(disk_id)._ff_req
        if req is None:
            return
        for hook in req.done.callbacks:
            if hook.__class__ is _FastFinish and hook.op == "read":
                done, req.done = req.done, Event(self.env)
                self.env.process(self._ff_rescue(hook, req, done))
                return

    def _ff_rescue(self, hook: _FastFinish, req, done: Event):
        try:
            value = yield req.done
        except DiskFailedError:
            (piece,) = self.planner.pieces_for(hook.offset, hook.nbytes)
            try:
                yield from self._read_piece(hook.client, piece, req.trace)
            except ReproError as exc:
                done.fail(exc)
                return
            value = None
        done.succeed(value)

    def _resolve_read(
        self, client: int, offset: int, nbytes: int
    ) -> _Resolution:
        """Resolve a one-block read to its local disk op, or the reason
        it falls back.

        The caller has checked that the read stays inside one block; the
        submit contract has checked the range against the device, and
        ``data_location`` still bounds the block.  So the offset is split
        with one ``divmod`` (the splitter's own arithmetic) and the one
        :class:`Piece` is built directly, with no splitter, and
        :meth:`read_source` picks the copy through the planner's
        ``read_candidates``, under the static policy only.  Nothing is
        memoized: this costs less than a memo miss with its insert and
        eviction, which a uniform draw over a large region pays on most
        reads (a hit costs less; DESIGN §6.14), and it reads the live
        dirty-group state afresh.
        """
        if self.system.read_policy != "static":
            return "read_policy"
        block, intra = divmod(offset, self.block_size)
        src = self.read_source(
            client, Piece(block, intra, nbytes, self._data_location(block))
        )
        if src is None:
            return "no_read_source"
        disk = src.disk
        if disk % self._n_nodes != client:
            return "remote_owner"  # CDD.owner_of: remote op
        return (disk, "read", src.offset + intra, nbytes, 0)

    def _ff_resolved(
        self, client: int, offset: int, nbytes: int
    ) -> _Resolution:
        """Memoized :meth:`_resolve_write`, FIFO-bounded at
        ``_FF_PLAN_CAP`` entries so unique-offset open-loop sweeps cannot
        grow it without limit.  With no failed disks (the only state the
        fast path accepts) a write's plan is a pure function of the key.
        """
        key = (client, offset, nbytes)
        resolved = self._ff_plans.get(key)
        if resolved is None:
            resolved = self._resolve_write(client, offset, nbytes)
            if len(self._ff_plans) >= _FF_PLAN_CAP:
                self._ff_plans.popitem(last=False)
                self.ff_plan_evictions += 1
            self._ff_plans[key] = resolved
        return resolved

    def _resolve_write(
        self, client: int, offset: int, nbytes: int
    ) -> _Resolution:
        """Plan one write down to a single local piece op, or the reason
        it falls back: the planner's protocol shape must be one
        non-tolerant op of a plain parallel write, on the client's own
        disk."""
        action = self.planner.plan(
            "write", offset, nbytes, self.failed_disks
        ).action
        if (
            not isinstance(action, ParallelWrite)
            or action.check_survivors
            or len(action.pieces) != 1
        ):
            return "write_shape"
        ops = action.pieces[0].ops
        if len(ops) != 1:
            return "write_copies"
        pop = ops[0]
        if pop.tolerant:
            return "write_tolerant"
        if pop.disk % self._n_nodes != client:
            return "remote_owner"  # CDD.owner_of: remote op
        return (pop.disk, pop.op, pop.offset, pop.nbytes, pop.priority)

    # -- top-level request path --------------------------------------------
    def run(self, client: int, op: str, offset: int, nbytes: int):
        """The process generator that executes one request: the single
        request path, cached or not (DESIGN §6.12).

        With a cache attached the stage's :meth:`CacheStage.read` or
        :meth:`CacheStage.write` body serves the request, calling back
        into :meth:`execute_read`/:meth:`execute_write` for fills,
        write-through commits and destages; without one the request runs
        its plan directly, event for event the pre-cache engine.  An
        uncached zero-length request has no pieces: it allocates no trace
        id and records nothing.  Every other request ends in
        :meth:`StorageSystem.end_request` — bytes when it completes, the
        ``REQUEST`` span either way.
        """
        cache = self.cache
        if cache is None and not nbytes:
            return
        tracer = _obs.TRACER
        trace = tracer.new_trace() if tracer.enabled else None
        t0 = self.env.now
        done = False
        try:
            if cache is not None:
                if op == "read":
                    yield from cache.read(client, offset, nbytes, trace)
                else:
                    yield from cache.write(client, offset, nbytes, trace)
            elif op == "read":
                yield from self.execute_read(client, offset, nbytes, trace)
            else:
                yield from self.execute_write(client, offset, nbytes, trace)
            done = True
        finally:
            self.system.end_request(client, op, offset, nbytes, t0, trace,
                                    done)

    def execute_read(self, client: int, offset: int, nbytes: int, trace):
        """The process generator reading ``nbytes > 0`` at ``offset``:
        its pieces concurrently — a request's read, or a cache fill.

        A read needs only its pieces (DESIGN §6.12).  Returns
        ``Environment.fan_out``'s generator, so the caller's ``yield
        from`` adds no frame of this method's own.
        """
        return self.env.fan_out([
            self._read_piece(client, piece, trace)
            for piece in self.planner.pieces_for(offset, nbytes)
        ])

    def execute_write(
        self, client: int, offset: int, nbytes: int, trace,
        wctx: Optional[WriteContext] = None,
    ):
        """Process generator: plan, lock and run one write — a request's
        write, a write-through commit or a destage.  ``wctx`` carries the
        RMW-absorbed block set to the planner; the write locks are
        released even when the write fails."""
        plan = self.planner.plan(
            "write", offset, nbytes, self.failed_disks, wctx=wctx
        )
        if not plan.pieces:
            return
        handle = None
        if self.system.locking:
            handle = yield from self.cdd(client).acquire_write_locks(
                list(plan.lock_blocks), trace=trace
            )
        try:
            action = plan.action
            if isinstance(action, ParallelWrite):
                yield from self._exec_parallel(client, action, trace)
            elif isinstance(action, SerialWrite):
                yield from self._exec_serial(client, action, trace)
            elif isinstance(action, ParityWrite):
                yield from self._exec_parity(client, action, trace)
            elif isinstance(action, OrthogonalWrite):
                yield from self._exec_orthogonal(client, action, trace)
            else:  # pragma: no cover - planner/engine contract violation
                raise NotImplementedError(
                    f"no executor for plan node {type(action).__name__}"
                )
        finally:
            if handle is not None:
                yield from self.cdd(client).release_write_locks(
                    handle, trace=trace
                )

    # -- reads -------------------------------------------------------------
    def _balance(self, sources: Tuple[Placement, ...]) -> Placement:
        """Apply the shortest-queue policy to the surviving copies
        (non-empty, preferred first)."""
        preferred = sources[0]
        if len(sources) == 1:
            return preferred
        depth0 = self.cluster.disk(preferred.disk).queue_depth
        best, best_depth = preferred, depth0
        for alt in sources[1:]:
            d = self.cluster.disk(alt.disk).queue_depth
            if d < best_depth:
                best, best_depth = alt, d
        if best is preferred:
            return preferred
        margin = self.system.read_balance_margin
        return best if depth0 - best_depth >= margin else preferred

    def read_source(self, client: int, piece: Piece) -> Optional[Placement]:
        """Pick the placement to serve a read piece (None = reconstruct).

        The planner ranks the surviving copies (pure, given the live
        failed set and mirror-staleness state); the engine applies the
        queue-depth read policy when the ranking allows it; the static
        policy always reads the preferred copy.
        """
        ctx = self._read_ctx[client]
        candidates, may_balance = self.planner.read_candidates(
            piece, self.failed_disks, ctx
        )
        if not candidates:
            return None
        if may_balance and ctx.balancing:
            return self._balance(candidates)
        return candidates[0]

    def _read_piece(self, client: int, piece: Piece, trace=None):
        """Read one piece, retrying on mid-flight disk failures.

        A request queued on a disk that fails before service returns EIO;
        real drivers then mark the disk bad and re-issue against a
        surviving copy — which is what the retry loop does (the failed
        set grows on every iteration, so it terminates)."""
        ctx = PieceContext(
            trace=trace, step="data",
            retry_budget=self.planner.layout.n_disks,
        )
        while True:
            src = self.read_source(client, piece)
            if src is None:
                rplan = self.planner.plan_reconstruct(
                    piece, self.failed_disks
                )
                yield from self._exec_reconstruct(client, rplan, trace)
                return
            try:
                yield from self.cluster.cdds[client].block_io(
                    "read", src.disk, src.offset + piece.intra,
                    piece.nbytes, ctx=ctx,
                )
                return
            except DiskFailedError as e:
                self.failed_disks.add(e.disk_id)
                ctx.attempt += 1
                if ctx.exhausted:
                    raise

    def _exec_reconstruct(
        self, client: int, rplan: ReconstructRead, trace
    ):
        """Rebuild a lost block from its surviving peers + parity."""
        yield from self.env.fan_out(
            [self._issue_gen(client, r, trace) for r in rplan.reads]
        )
        yield self.cluster.nodes[client].cpu.xor(rplan.xor_bytes)

    # -- writes ------------------------------------------------------------
    def _check_copies(self, copies) -> None:
        """Raise when every copy of any block sits on a failed disk."""
        for cs in copies:
            if all(d in self.failed_disks for d in cs.disks):
                raise DataLossError(
                    f"block {cs.block}: every copy on a failed disk"
                )

    def _exec_parallel(self, client: int, action: ParallelWrite, trace):
        gens = []
        for mw in action.pieces:
            ops = mw.ops
            if mw.skip_failed:
                ops = tuple(
                    o for o in ops if o.disk not in self.failed_disks
                )
                if not ops and mw.require_alive:
                    raise DataLossError(
                        f"block {mw.block}: every copy on a failed disk"
                    )
            for o in ops:
                gens.append(self._issue_gen(client, o, trace))
        yield from self.env.fan_out(gens)
        if action.check_survivors:
            self._check_copies(action.copies)

    def _exec_serial(self, client: int, action: SerialWrite, trace):
        self._check_copies(action.copies)
        # Primary wave first, mirror wave after it commits.
        for wave in action.waves:
            gens = [
                self._issue_gen(client, o, trace)
                for o in wave
                if o.disk not in self.failed_disks
            ]
            if gens:
                yield from self.env.fan_out(gens)
        self._check_copies(action.copies)

    # -- parity stripes (RAID-5) -------------------------------------------
    def _stripe_lock(self, stripe: int) -> Mutex:
        m = self._stripe_locks.get(stripe)
        if m is None:
            m = Mutex(self.env)
            self._stripe_locks[stripe] = m
        return m

    def _exec_parity(self, client: int, action: ParityWrite, trace):
        yield from self.env.fan_out(
            [self._exec_stripe(client, sw, trace) for sw in action.stripes]
        )

    def _exec_stripe(self, client: int, sw: StripeWrite, trace):
        cpu = self.cluster.nodes[client].cpu
        tracer = _obs.TRACER
        t0 = self.env.now
        # The queued request must be released (or cancelled) even if
        # this process fails while waiting for the grant, so the try
        # covers the wait itself, not just the held region.
        lock = self._stripe_lock(sw.stripe).acquire(owner=client)
        try:
            yield lock
            if tracer.enabled:
                tracer.record(
                    LOCK_WAIT, f"node{client}.lock", t0, self.env.now,
                    trace=trace, group=sw.stripe, client=client,
                    scope="stripe",
                )
            parity_alive = sw.parity_disk not in self.failed_disks
            if sw.full_stripe is not None:
                # Full-stripe write: parity computed in memory, no reads.
                fsp = sw.full_stripe
                yield cpu.xor(fsp.xor_bytes)
                gens = [
                    self._issue_gen(client, o, trace)
                    for o in fsp.writes
                    if o.disk not in self.failed_disks
                ]
                if parity_alive:
                    gens.append(
                        self._issue_gen(client, fsp.parity_write, trace)
                    )
                yield from self.env.fan_out(gens)
                return

            for g in sw.rmw_passes:
                gens = [
                    self._issue_gen(client, o, trace)
                    for o in g.reads
                    if o.disk not in self.failed_disks
                ]
                if parity_alive:
                    gens.append(
                        self._issue_gen(client, g.parity_read, trace)
                    )
                if gens:
                    yield from self.env.fan_out(gens)
                # Two XOR passes: strip old data out of parity, add new.
                yield cpu.xor(g.xor_bytes, passes=2)
                gens = [
                    self._issue_gen(client, o, trace)
                    for o in g.writes
                    if o.disk not in self.failed_disks
                ]
                if parity_alive:
                    gens.append(
                        self._issue_gen(client, g.parity_write, trace)
                    )
                yield from self.env.fan_out(gens)
        finally:
            self._stripe_lock(sw.stripe).release(lock)

    # -- orthogonal striping and mirroring (RAID-x) ------------------------
    def _exec_orthogonal(self, client: int, action: OrthogonalWrite, trace):
        m = self.mirror
        m.coalesced_extents += len(action.extents)
        for e in action.extents:
            if e.disk not in self.failed_disks:
                m.dirty_groups.add(e.group)
        # Foreground: data blocks stripe across all disks in parallel.
        gens = [
            self._issue_gen(client, o, trace)
            for o in action.foreground
            # Degraded write: only the image will carry a block whose
            # primary disk has failed.
            if o.disk not in self.failed_disks
        ]
        if not action.background:
            gens.extend(self._flush_gens(client, action.extents, trace=trace))
        if gens:
            yield from self.env.fan_out(gens)
        if action.background:
            # Background: hand the clustered image extents to the
            # flusher (bulk, through the kernel's heapify path: the n-1
            # images of a cluster in one batch); rewrites of an
            # already-queued extent are absorbed.
            m.pending_flushes.extend(
                self.env.process_many(
                    self._flush_gens(
                        client, action.extents, absorb=True, trace=trace
                    )
                )
            )

    def _flush_gens(
        self, client: int, extents: Tuple[ImageExtent, ...],
        absorb: bool = False, trace=None,
    ) -> list:
        gens = []
        tracer = _obs.TRACER
        m = self.mirror
        for e in extents:
            if e.disk in self.failed_disks:
                continue
            key = (e.disk, e.offset, e.nbytes)
            if absorb:
                if key in m.queued_extents:
                    # Write-behind absorption: the queued flush will
                    # carry the newer contents of this extent.
                    m.absorbed_rewrites += 1
                    if tracer.enabled:
                        tracer.count("mirror.absorbed_rewrites")
                    continue
                m.queued_extents.add(key)
            gens.append(
                self._flush_one(
                    client, e.group, e.disk, e.offset, e.nbytes, key,
                    absorb, trace,
                )
            )
        return gens

    def _flush_one(
        self, client, group, disk, off, nbytes, key, tracked, trace=None
    ):
        m = self.mirror
        exposed_at = self.env.now
        ctx = PieceContext(trace=trace, step="mirror")
        try:
            yield from self.cdd(client).block_io(
                "write", disk, off, nbytes, priority=1, ctx=ctx
            )
            m.vulnerability_windows.append(self.env.now - exposed_at)
            tracer = _obs.TRACER
            if tracer.enabled:
                owner = self.planner.layout.node_of_disk(disk)
                tracer.record(
                    MIRROR_FLUSH, f"node{owner}.mirror", exposed_at,
                    self.env.now, trace=trace, disk=disk, nbytes=nbytes,
                    deferred=tracked,
                )
        except DiskFailedError as e:
            # The image disk died under the flush: the data block still
            # lives on its primary, so mark the disk and move on.
            self.failed_disks.add(e.disk_id)
            if tracked:
                m.queued_extents.discard(key)
            return
        if tracked:
            m.queued_extents.discard(key)
        m.background_bytes += nbytes
        m.dirty_groups.discard(group)

    def drain(self):
        """Wait until every piece of background work has completed:
        cache destage sweeps first (they can enqueue image flushes),
        then the RAID-x write-behind flusher."""
        if self.cache is not None:
            yield from self.cache.drain()
        m = self.mirror
        while m.pending_flushes:
            pending, m.pending_flushes = m.pending_flushes, []
            yield self.env.all_of(pending)

    @property
    def pending_background_flushes(self) -> int:
        return sum(
            1 for e in self.mirror.pending_flushes if not e.processed
        )

    def vulnerability_stats(self) -> dict:
        """Mean/max/p95 of the image-flush exposure windows (seconds)."""
        w = self.mirror.vulnerability_windows
        if not w:
            return {"count": 0, "mean": 0.0, "max": 0.0, "p95": 0.0}
        ordered = sorted(w)
        return {
            "count": len(w),
            "mean": sum(w) / len(w),
            "max": ordered[-1],
            "p95": ordered[max(0, int(0.95 * len(ordered)) - 1)],
        }
