"""The engine's cache admission/lookup stage (the timing half).

:mod:`repro.cache` is pure bookkeeping; this module owns everything
that runs: serving hits as local memory copies, filling misses through
the planner/engine read path, dirtying write-back blocks in place,
charging peer-invalidation control messages, and running destage
sweeps as background processes the system's ``drain`` waits on.

Placement in the request path (DESIGN §6.17–6.18)::

    submit -> CacheStage.try_fast_submit      (closed-form fast path)
              -> all-resident hit:  priced memcpy + _FFCacheHit replay
              -> clean miss fill:   Node.try_fast_forward + install
              -> anything else:     None -> fall through to
           -> ExecutionEngine.run
              -> CacheStage.run_request        (this module)
                 -> hits:   CDD cache_copy (one local memcpy)
                 -> misses: CDD cache_fill  -> engine.execute_read
                 -> writes: dirty in cache; invalidate peers
              -> background: CDD cache_destage -> engine.execute_write
                 (with a WriteContext naming the RMW-absorbed blocks)

Cache-off systems never construct a CacheStage, so the stage costs the
golden paths nothing — ``engine.run`` falls straight through to plan
execution, event-for-event identical to the pre-cache engine.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cache import (
    BlockCache,
    CacheConfig,
    CacheDirectory,
    WriteAdmission,
    make_destage_policy,
)
from repro.cache.block import BlockState
from repro.cache.destage import DestageRun, coalesce_runs
from repro.cluster.message import ACK_BYTES, MessageKind
from repro.errors import DataLossError, DiskFailedError, ReproError
from repro.hardware.node import LocalReadChain
from repro.obs import runtime as _obs
from repro.obs.trace import CACHE_DESTAGE, CACHE_LOOKUP, REQUEST
from repro.raid.plan import WriteContext, split_into_blocks
from repro.sim.events import Event, PopScript


class _FFCacheHit(PopScript):
    """Two-pop closed-form replay of :meth:`CacheStage.run_request` for
    an all-resident request (DESIGN §6.18).

    The eager half (:meth:`CacheStage._fast_hit`) performs the
    Initialize-pop mutations — recency/stats lookups or write
    admissions, the ``_active`` bracket, the CPU memcpy claim — at
    submit time; this script then occupies the pops the phase request
    would: the request ``Initialize`` (urgent, at submit: the trace id
    allocates and the memcpy hold's key is drawn) and the memcpy hold's
    pop (the request generator runs to completion).  ``done``'s own pop
    stands in for the request ``Process`` pop the workload resumes on.
    """

    __slots__ = (
        "cache", "client", "op", "offset", "nbytes", "t0", "t1", "trace",
        "done", "pieces", "dirtied", "absorbed",
    )

    def __init__(
        self, cache: "CacheStage", client: int, op: str, offset: int,
        nbytes: int, t1: float, pieces, dirtied: int, absorbed: int,
    ):
        env = cache.env
        super().__init__(env)
        self.cache = cache
        self.client = client
        self.op = op
        self.offset = offset
        self.nbytes = nbytes
        self.t0 = env._now
        self.t1 = t1
        self.trace: Optional[int] = None
        #: The completion event handed to the workload (≡ the phase
        #: request's Process event).
        self.done = Event(env)
        self.pieces = pieces
        self.dirtied = dirtied
        self.absorbed = absorbed
        self.urgent()

    def _request_init(self, _event: Event) -> None:
        # ≡ request Initialize pop: the trace id allocates, then the
        # memcpy hold draws its normal key at t1.
        tracer = _obs.TRACER
        self.trace = tracer.new_trace() if tracer.enabled else None
        self.at(self.t1)

    def _memcpy_hold(self, _event: Event) -> None:
        # ≡ memcpy hold pop: the request generator resumes and runs to
        # completion — same actions, same order.
        st = self.cache
        tracer = _obs.TRACER
        if self.op == "read":
            if tracer.enabled:
                tracer.record(
                    CACHE_LOOKUP, f"node{self.client}.cache", self.t0,
                    self.env._now, trace=self.trace, op="read",
                    hits=len(self.pieces), misses=0,
                )
        else:
            st._invalidate_peers(self.client, [p[0] for p in self.pieces])
            if tracer.enabled:
                tracer.record(
                    CACHE_LOOKUP, f"node{self.client}.cache", self.t0,
                    self.env._now, trace=self.trace, op="write",
                    dirtied=self.dirtied, absorbed=self.absorbed, fills=0,
                )
        st._ff_finish(self)

    STAGES = (_request_init, _memcpy_hold)


class _FFFill(LocalReadChain):
    """The local-read chain of a fast-forwarded clean-miss fill.

    The hit fast path may claim its memcpy eagerly at submit because
    the phase twin claims at the request-Initialize pop — the very next
    urgent slot, before any other claimant can run.  A *fill* is
    different: its phase twin claims CPU/SCSI one level deeper, at the
    **piece**-Initialize pop, which drains *after* every same-instant
    later submission's request-Initialize — a burst like ``[fill, hit,
    hit]`` from one client orders its CPU claims hit-hit-fill on the
    phase path, so claiming the fill eagerly at submit would invert
    that and shift every completion time.  And the *disk marker's* heap
    key is drawn later still, at the dispatch-wake pop when the bus
    transfer lands, so a marker keyed at submit time would jump
    same-time completion ties against concurrently finishing phase
    requests.

    So this chain claims at its piece-Initialize stage (``_claim``)
    and adds the dispatch-wake stage (``_dispatch``), where the disk
    preload arms the completion marker at the phase-exact slot.  Its
    epilogue is the cache's (DESIGN §6.18, §6.20).  A disk that fails
    inside the window, before the bus delivers the read or during its
    service, sends the fill through the engine's read retry
    (:meth:`_recover`), as the phase piece's failure would.
    """

    __slots__ = (
        "cache", "block", "disk", "io_op", "io_offset", "priority", "done",
    )

    def __init__(
        self, cache: "CacheStage", client: int, block: int,
        offset: int, nbytes: int, disk, io_op: str, io_offset: int,
        io_nbytes: int, priority: int,
    ):
        super().__init__(cache.env, client, "read", offset, nbytes, io_nbytes)
        self.cache = cache
        self.block = block
        self.disk = disk
        self.io_op = io_op
        self.io_offset = io_offset
        self.priority = priority
        #: The completion event handed to the workload (≡ the phase
        #: request's Process event).
        self.done = Event(cache.env)
        # Urgent at submit time: the request Initialize's pop slot.
        self.urgent()

    def _request_init(self, _event: Event) -> None:
        # ≡ request Initialize pop: the body starts — trace id
        # allocates, the lookup misses, the fill routes into the CDD,
        # and the piece process spawns (second urgent push).
        tracer = _obs.TRACER
        if tracer.enabled:
            self.trace = tracer.new_trace()
        st = self.cache
        st._active += 1
        st.caches[self.client].stats.misses += 1
        st.engine.cdd(self.client).cache_fill_ops += 1
        self.urgent()

    def _claim(self, _event: Event) -> None:
        # ≡ piece Initialize pop: the piece body starts — issue
        # counters bump and the CPU/SCSI claims land at exactly this
        # slot, behind every same-instant memcpy claim the phase path
        # orders first.  The CPU hold's key at t1 is drawn here.
        engine = self.cache.engine
        cdd = engine.cdd(self.client)
        cdd.issued_ops += 1
        cdd.transport.stats.local_block_ops += 1
        node = engine.cluster.nodes[self.client]
        self.t1 = node.ff_claim_cpu(node.config.cpu.kernel_request_overhead_s)
        self.t2 = node.ff_claim_scsi(self.t1, self.io_nbytes)
        self.at(self.t1)

    def _to_disk(self) -> None:
        # disk.submit wakes the parked disk: one normal push at now.
        self.at(self.env._now)

    def _dispatch(self, _event: Event) -> None:
        # ≡ dispatch-wake pop: the disk prices the read against the
        # same head state and arms the completion marker here, so the
        # marker's heap key is drawn at the phase slot.  Only now does
        # the disk leave its parked state — the pending-fill veto held
        # every later fill off the fast path for the whole deferral
        # window, and every other route to the disk runs through the
        # CPU and bus this fill holds until now, so the submit-time
        # predicate must still hold unless the disk failed meanwhile.
        self.cache._ff_fill_pending[self.client] -= 1
        disk = self.disk
        if disk.failed:
            self.env.process(self._recover())
            return
        if not disk.ff_ready(self.io_op, self.io_offset, self.io_nbytes):
            raise RuntimeError(
                "deferred fill preload raced: disk "
                f"{disk.disk_id} was touched during the claim window "
                "(pending-fill fence broken)"
            )
        done = disk.ff_preload(
            self.io_op, self.io_offset, self.io_nbytes, self.env._now,
            priority=self.priority, trace=self.trace,
        )
        self.on(done)

    def _read_done(self, event: Event) -> None:
        # ≡ the fill read's completion pop, which may carry the disk's
        # failure.
        if event._ok:
            self._disk_done(event)
        else:
            event.defused()
            self.env.process(self._recover())

    def _recover(self):
        """Process generator: the fill's disk failed inside the window.
        Re-read through the engine's retry, then end the request as
        :meth:`CacheStage.run_request` would — installed and accounted,
        or failed with the retry's typed error."""
        st = self.cache
        try:
            yield from st.engine.reread(
                self.client, self.offset, self.nbytes, self.trace
            )
        except ReproError as exc:
            st._ff_release(self)
            self.done.fail(exc)
            return
        self.epilogue()

    def epilogue(self) -> None:
        # The request generator's epilogue: install, record, account,
        # release, destage decision, and the request Process push the
        # workload resumes on.
        st = self.cache
        st.directory.note_cached(self.client, self.block)
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.record(
                CACHE_LOOKUP, f"node{self.client}.cache", self.t0,
                self.env._now, trace=self.trace, op="read", hits=0,
                misses=1,
            )
        st._ff_finish(self)

    STAGES = (
        _request_init, _claim, LocalReadChain._cpu_hold,
        LocalReadChain._scsi_hold, _dispatch, _read_done,
        LocalReadChain._piece_process, LocalReadChain._allof,
    )


class CacheStage:
    """Per-system buffer-cache layer: one cache per node, one shared
    write-invalidate directory, and the destage machinery."""

    def __init__(self, engine, config: CacheConfig) -> None:
        self.engine = engine
        self.env = engine.env
        self.config = config
        n = len(engine.cluster.nodes)
        self.caches: List[BlockCache] = [
            BlockCache(
                i,
                capacity_blocks=config.capacity_blocks,
                policy=config.policy,
                track_blocks=config.track_blocks,
            )
            for i in range(n)
        ]
        self.directory = CacheDirectory(self.caches)
        self.policy = make_destage_policy(config, self._group_of())
        #: Foreground requests currently inside the stage (idle detect).
        self._active = 0
        #: One destage sweep per node at a time.
        self._destaging: List[bool] = [False] * n
        #: Fast-forwarded fills between submit and their deferred disk
        #: preload (at most one per client; see :class:`_FFFill`).
        self._ff_fill_pending: List[int] = [0] * n
        #: Outstanding destage-sweep processes (drain joins these).
        self._sweeps: List[Event] = []
        #: Static per-node memcpy rate, hoisted off the submit path.
        self._memcpy_rate: List[float] = [
            node.cpu.params.memcpy_rate for node in engine.cluster.nodes
        ]

    def _group_of(self) -> Callable[[int], int]:
        """Block -> redundancy-group id for mirror-coalescing destage:
        the RAID-x mirror group when the layout has one, else the
        stripe (contiguous either way, so runs stay single-write)."""
        layout = self.engine.planner.layout
        mirror_slot = getattr(layout, "mirror_slot", None)
        if mirror_slot is not None:
            return lambda b: mirror_slot(b)[0]
        return layout.stripe_of

    @property
    def block_size(self) -> int:
        return self.engine.block_size

    @property
    def dirty_or_destaging(self) -> bool:
        """The fast-forward conflict predicate: any unwritten data, or
        a destage sweep in flight, anywhere in the stage."""
        return any(c.dirty_count for c in self.caches) or any(
            self._destaging
        )

    # -- submit-time fast path ---------------------------------------------
    def try_fast_submit(
        self, client: int, op: str, offset: int, nbytes: int
    ) -> Optional[Event]:
        """Closed-form execution of the two dominant cache outcomes.

        Dispatched from :meth:`ExecutionEngine.try_fast_submit` (which
        has already established no failed disks and no in-flight phase
        requests from this client).  Prices analytically:

        * an **all-resident hit** — every piece resident (reads accept
          any state; writes need write-back mode, no fill, and headroom
          under the destage threshold): one memcpy claim plus a
          two-pop :class:`_FFCacheHit` replay;
        * a **clean single-piece read miss** — nothing dirty, no
          destage sweep in flight: the existing node fast-forward
          prices the fill read and the fill installs at completion.

        Everything else returns ``None`` and falls through to the
        event-driven path, having charged and mutated nothing.  The
        legality argument is DESIGN §6.18.
        """
        if nbytes <= 0:
            return None
        engine = self.engine
        node = engine.cluster.nodes[client]
        cpu_link = node.cpu._work
        if cpu_link.outstanding:
            # A hit is priced on the CPU work link with the same eager
            # arithmetic as the node fast-forward: only legal while the
            # link is provably idle (DESIGN §6.14 applies unchanged).
            return None
        bs = engine.block_size
        pieces = split_into_blocks(offset, nbytes, bs)
        cache = self.caches[client]
        if op == "read":
            if len(pieces) == 1:
                block = pieces[0][0]
                if block in cache:
                    return self._fast_hit(
                        client, op, offset, nbytes, pieces
                    )
                return self._fast_fill(client, offset, nbytes, block)
            if all(block in cache for block, _intra, _take in pieces):
                return self._fast_hit(client, op, offset, nbytes, pieces)
            return None
        if not self.config.writeback:
            return None  # write-through commits to disk: never priced
        would_dirty = 0
        for block, intra, take in pieces:
            verdict = cache.ff_write_verdict(
                block, full_block=(intra == 0 and take == bs)
            )
            if verdict is WriteAdmission.NEEDS_FILL:
                return None  # RMW fill reads disk: event path
            if verdict is WriteAdmission.DIRTIED:
                would_dirty += 1
        if self.policy.ff_would_destage(cache, would_dirty):
            # Keep threshold-crossing writes on the event path: the
            # fast path never puts the cache under destage pressure.
            return None
        return self._fast_hit(client, op, offset, nbytes, pieces)

    def _fast_hit(
        self, client: int, op: str, offset: int, nbytes: int, pieces
    ) -> Event:
        """Eager half of an all-resident fast hit.

        Performs the Initialize-pop mutations now — per-piece recency
        and hit/admission bookkeeping in piece order, the ``_active``
        bracket, the memcpy claim — with the same float arithmetic and
        the same mutation order ``run_request`` uses, then hands the
        deferred half (spans, invalidations, byte accounting, destage
        check) to :class:`_FFCacheHit`.
        """
        engine = self.engine
        node = engine.cluster.nodes[client]
        memcpy_rate = self._memcpy_rate[client]
        dirtied = absorbed = 0
        if op == "read":
            hit_bytes = 0
            for block, _intra, take in pieces:
                self.directory.lookup(client, block)
                hit_bytes += take
            seconds = hit_bytes / memcpy_rate
        else:
            bs = self.block_size
            cache = self.caches[client]
            for block, intra, take in pieces:
                verdict = cache.admit_write(
                    block, full_block=(intra == 0 and take == bs)
                )
                if verdict is WriteAdmission.ABSORBED:
                    absorbed += 1
                else:
                    dirtied += 1
            seconds = nbytes / memcpy_rate
        self._active += 1
        t1 = node.ff_claim_cpu(seconds)
        ev = _FFCacheHit(
            self, client, op, offset, nbytes, t1, pieces, dirtied, absorbed
        )
        engine.fast_submits += 1
        engine.fast_hits += 1
        return ev.done

    def _fast_fill(
        self, client: int, offset: int, nbytes: int, block: int
    ) -> Optional[Event]:
        """Closed-form clean read miss: a conflict-free one-piece fill.

        With nothing dirty in this cache and no destage sweep in flight
        (any sweep's plan writes may hold pending-invisible claims on
        this node's pipeline, exactly the ``phase_inflight`` hazard),
        the fill is the same single-piece local read the uncached fast
        path prices.  All predicates are checked here, claim-free; the
        claims themselves are deferred to the piece-Initialize pop slot
        by :class:`_FFFill`, so same-instant later submissions keep
        their phase-path claim order.  At most one fill defers per
        client at a time: the disk stays *parked* until the deferred
        preload lands at the bus-delivery time, so a second fill
        submitted anywhere in that window would wrongly pass
        ``ff_ready`` — the pending-fill veto holds it (and only it; no
        other path can reach a local disk without claiming the CPU and
        bus this fill already holds) on the event path instead."""
        if self.caches[client].dirty_count or any(self._destaging):
            return None
        if self._ff_fill_pending[client]:
            return None
        engine = self.engine
        resolved = engine._ff_resolved(client, "read", offset, nbytes)
        if resolved is None:
            return None
        disk_id, io_op, io_offset, io_nbytes, priority = resolved
        node = engine.cluster.nodes[client]
        disk = node.ff_ready_chain(disk_id, io_op, io_offset, io_nbytes)
        if disk is None:
            return None
        self._ff_fill_pending[client] += 1
        run = _FFFill(
            self, client, block, offset, nbytes, disk,
            io_op, io_offset, io_nbytes, priority,
        )
        engine.fast_submits += 1
        engine.fast_fills += 1
        return run.done

    # -- the admission/lookup stage ----------------------------------------
    def run_request(self, client: int, op: str, offset: int, nbytes: int):
        """Process generator: one logical request through the cache."""
        tracer = _obs.TRACER
        trace = tracer.new_trace() if tracer.enabled else None
        t0 = self.env.now
        self._active += 1
        try:
            if op == "read":
                yield from self._read(client, offset, nbytes, trace)
                self.engine.system.bytes_read += nbytes
            else:
                yield from self._write(client, offset, nbytes, trace)
                self.engine.system.bytes_written += nbytes
        finally:
            self._active -= 1
            if tracer.enabled:
                tracer.record(
                    REQUEST, f"node{client}.request", t0, self.env.now,
                    trace=trace, op=op, offset=offset, nbytes=nbytes,
                    arch=self.engine.system.name,
                )
        self._maybe_destage(client, trace)

    def _ff_finish(self, run) -> None:
        """The tail of :meth:`run_request` at a fast-path replay's last
        pop (``run`` is an :class:`_FFCacheHit` or an :class:`_FFFill`):
        bytes account, the ``finally`` clause runs, the destage decision
        replays, and the workload's event succeeds."""
        system = self.engine.system
        if run.op == "read":
            system.bytes_read += run.nbytes
        else:
            system.bytes_written += run.nbytes
        self._ff_release(run)
        self._maybe_destage(run.client, run.trace)
        run.done.succeed()

    def _ff_release(self, run) -> None:
        """:meth:`run_request`'s ``finally`` clause for a replay."""
        self._active -= 1
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.record(
                REQUEST, f"node{run.client}.request", run.t0, self.env.now,
                trace=run.trace, op=run.op, offset=run.offset,
                nbytes=run.nbytes, arch=self.engine.system.name,
            )

    def _read(self, client: int, offset: int, nbytes: int, trace):
        bs = self.block_size
        cdd = self.engine.cdd(client)
        t0 = self.env.now
        hit_bytes = 0
        hits = misses = 0
        miss_runs: List[List[int]] = []  # [start, end) byte ranges
        for block, intra, take in split_into_blocks(offset, nbytes, bs):
            if self.directory.lookup(client, block):
                hits += 1
                hit_bytes += take
                continue
            misses += 1
            start = block * bs + intra
            if miss_runs and miss_runs[-1][1] == start:
                miss_runs[-1][1] = start + take
            else:
                miss_runs.append([start, start + take])
        if hit_bytes:
            yield from cdd.cache_copy(hit_bytes)
        for start, end in miss_runs:
            yield from cdd.cache_fill(
                self.engine, client, start, end - start, trace
            )
            for b in range(start // bs, (end - 1) // bs + 1):
                self.directory.note_cached(client, b)
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.record(
                CACHE_LOOKUP, f"node{client}.cache", t0, self.env.now,
                trace=trace, op="read", hits=hits, misses=misses,
            )

    def _write(self, client: int, offset: int, nbytes: int, trace):
        if not self.config.writeback:
            yield from self._write_through(client, offset, nbytes, trace)
            return
        bs = self.block_size
        cache = self.caches[client]
        cdd = self.engine.cdd(client)
        t0 = self.env.now
        pieces = split_into_blocks(offset, nbytes, bs)
        # RMW absorption at the cache level: a partial write of a
        # non-resident block fills the whole block first, so the cache
        # holds the pre-write content and the eventual destage can skip
        # the RAID-5 old-data pre-read.
        fill_blocks = [
            block
            for block, intra, take in pieces
            if (intra != 0 or take != bs) and block not in cache
        ]
        for run in coalesce_runs(fill_blocks, len(fill_blocks) or 1):
            yield from cdd.cache_fill(
                self.engine, client, run.start_block * bs,
                run.n_blocks * bs, trace,
            )
            for b in run.blocks:
                cache.fill(b)
        dirtied = absorbed = 0
        for block, intra, take in pieces:
            verdict = cache.admit_write(
                block, full_block=(intra == 0 and take == bs)
            )
            if verdict is WriteAdmission.ABSORBED:
                absorbed += 1
            else:
                dirtied += 1
        # One local copy lands the payload in the cache.
        yield from cdd.cache_copy(nbytes)
        self._invalidate_peers(client, [p[0] for p in pieces])
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.record(
                CACHE_LOOKUP, f"node{client}.cache", t0, self.env.now,
                trace=trace, op="write", dirtied=dirtied,
                absorbed=absorbed, fills=len(fill_blocks),
            )

    def _write_through(self, client: int, offset: int, nbytes: int, trace):
        """Write-through mode: commit to disk first, cache clean after."""
        bs = self.block_size
        t0 = self.env.now
        yield from self.engine.execute_write(client, offset, nbytes, trace)
        blocks = [b for b, _intra, _take in split_into_blocks(
            offset, nbytes, bs
        )]
        self._invalidate_peers(client, blocks)
        for b in blocks:
            self.directory.note_cached(client, b)
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.record(
                CACHE_LOOKUP, f"node{client}.cache", t0, self.env.now,
                trace=trace, op="write", mode="writethrough",
                blocks=len(blocks),
            )

    def _invalidate_peers(self, client: int, blocks: List[int]) -> None:
        """The write-invalidate protocol: one fire-and-forget control
        message per peer that actually held a written block."""
        transport = self.engine.cluster.transport
        for block in blocks:
            for peer in self.directory.invalidate_peers(client, block):
                transport.send(
                    MessageKind.INVALIDATE, client, peer, ACK_BYTES
                )
            self.directory.note_resident(client, block)

    # -- destage -----------------------------------------------------------
    def _maybe_destage(self, client: int, trace) -> None:
        cache = self.caches[client]
        if self._destaging[client]:
            return
        if not self.policy.should_destage(cache, idle=self._active == 0):
            return
        self._spawn_sweep(client, self.policy.select(cache), trace)

    def _spawn_sweep(
        self, client: int, runs: List[DestageRun], trace
    ) -> None:
        if not runs:
            return
        self._destaging[client] = True
        self._sweeps.append(
            self.env.process(self._destage_sweep(client, runs, trace))
        )

    def _destage_sweep(self, client: int, runs: List[DestageRun], trace):
        """Background process: write selected dirty runs back to disk.

        A disk failure mid-destage marks-and-continues when redundancy
        absorbs it (the engine's tolerant-write path); an unrecoverable
        failure reports each block lost exactly once via
        :meth:`BlockCache.destage_lost`."""
        cache = self.caches[client]
        bs = self.block_size
        cdd = self.engine.cdd(client)
        tracer = _obs.TRACER
        try:
            for run in runs:
                # Re-validate: foreground writes or peer invalidations
                # may have raced this sweep between its yields.
                live = [
                    b for b in run.blocks
                    if cache.state_of(b) is BlockState.DIRTY
                ]
                for sub in coalesce_runs(live, len(live) or 1):
                    yield from self._destage_run(
                        client, cache, cdd, sub, bs, tracer, trace
                    )
        finally:
            self._destaging[client] = False

    def _destage_run(
        self, client, cache, cdd, run: DestageRun, bs, tracer, trace
    ):
        cache.begin_destage(list(run.blocks))
        yield from self._write_back(
            client, cache, cdd, run, bs, tracer, trace, split=True
        )

    def _write_back(
        self, client, cache, cdd, run: DestageRun, bs, tracer, trace,
        split: bool,
    ):
        """Write one run of DESTAGING blocks back through the engine.

        A failed multi-block run is retried block by block (``split``)
        so that only blocks the array genuinely cannot store any more
        are reported lost — a coalesced run spans several disks, and
        one dead disk must not drag its healthy neighbours down."""
        blocks = list(run.blocks)
        wctx = WriteContext(
            absorbed=frozenset(b for b in blocks if cache.old_known(b))
        )
        t0 = self.env.now
        failed = False
        try:
            yield from cdd.cache_destage(
                self.engine, client, run.start_block * bs,
                run.n_blocks * bs, trace, wctx,
            )
        except DiskFailedError as e:
            self.engine.failed_disks.add(e.disk_id)
            failed = True
        except DataLossError:
            failed = True
        lost = False
        if not failed:
            cache.complete_destage(blocks)
            cache.stats.destage_batches += 1
        elif split and len(blocks) > 1:
            for b in blocks:
                yield from self._write_back(
                    client, cache, cdd, DestageRun(b, (b,)), bs,
                    tracer, trace, split=False,
                )
        else:
            cache.destage_lost(blocks)
            lost = True
        if tracer.enabled:
            tracer.record(
                CACHE_DESTAGE, f"node{client}.cache", t0, self.env.now,
                trace=trace, start_block=run.start_block,
                blocks=run.n_blocks, lost=lost,
                split=failed and not lost,
            )

    def drain(self):
        """Process generator: destage everything, join every sweep.

        Sweep spawns go through ``Environment.process_many`` — a drain
        burst across all node caches is one heapified Initialize batch
        rather than one sift per sweep (timing-identical, same
        contract as the engine's batched plan executors)."""
        while True:
            spawns = []
            for client, cache in enumerate(self.caches):
                if cache.dirty_blocks() and not self._destaging[client]:
                    runs = coalesce_runs(
                        cache.dirty_blocks(), self.config.destage_batch
                    )
                    if runs:
                        self._destaging[client] = True
                        spawns.append(
                            self._destage_sweep(client, runs, None)
                        )
            self._sweeps.extend(self.env.process_many(spawns))
            if not self._sweeps:
                return
            sweeps, self._sweeps = self._sweeps, []
            yield self.env.all_of(sweeps)

    # -- reporting ---------------------------------------------------------
    def hit_rates(self) -> List[float]:
        return [c.hit_rate() for c in self.caches]
