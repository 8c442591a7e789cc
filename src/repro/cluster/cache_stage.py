"""The engine's cache admission/lookup stage (the timing half).

:mod:`repro.cache` is pure bookkeeping; this module owns everything
that runs: serving hits as local memory copies, filling misses through
the planner/engine read path, dirtying write-back blocks in place,
charging peer-invalidation control messages, and running destage
sweeps as background processes the system's ``drain`` waits on.

Placement in the request path (DESIGN §6.17; a cached request always
takes the event-driven path, §6.18)::

    submit -> ExecutionEngine.run
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

from typing import Callable, List

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
from repro.errors import DataLossError, DiskFailedError
from repro.obs import runtime as _obs
from repro.obs.trace import CACHE_DESTAGE, CACHE_LOOKUP, REQUEST
from repro.raid.plan import WriteContext, split_into_blocks
from repro.sim.events import Event


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
        #: Outstanding destage-sweep processes (drain joins these).
        self._sweeps: List[Event] = []

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
        """The drain check: any unwritten data, or a destage sweep in
        flight, anywhere in the stage (false once ``drain`` returns)."""
        return any(c.dirty_count for c in self.caches) or any(
            self._destaging
        )

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
            yield cdd.cache_copy(hit_bytes)
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
        yield cdd.cache_copy(nbytes)
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
