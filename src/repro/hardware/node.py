"""A cluster node: CPU + NIC + SCSI bus(es) + local disks."""

from __future__ import annotations

import os
from heapq import heappush
from typing import TYPE_CHECKING, List, Optional

from repro.config import ClusterConfig
from repro.hardware.cpu import Cpu
from repro.hardware.disk import Disk
from repro.hardware.scsi import ScsiBus
from repro.io.scheduler import make_scheduler
from repro.obs import runtime as _obs
from repro.obs.trace import CPU_DRIVER, REQUEST, SCSI_TRANSFER
from repro.sim.core import Environment
from repro.sim.events import _KEY_OFFSET, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.nic import Nic

#: Process-wide default for the node-level analytic fast-forward
#: (per-node override via ``Node(fast_forward=...)``).  Read at Node
#: construction time, like the disk-level ``FAST_FORWARD`` flag.
NODE_FAST_FORWARD = os.environ.get("REPRO_NODE_FF", "1").lower() not in (
    "0",
    "off",
    "no",
    "false",
)


class FFSpanSynth(Event):
    """Lockstep span synthesis for one fast-forwarded request.

    With tracing on, the event-driven phase path allocates its trace id
    and records its cpu/scsi/request spans at specific *event pops*
    whose heap keys were allocated at specific earlier pops.  The heap
    breaks same-time ties by those keys, so the byte-identical
    span-stream contract (the golden equivalence suites hash spans in
    append order) is about *pop positions*, not just timestamps.

    This event re-schedules itself through the exact pop positions the
    phase path would occupy — one urgent pop at submit time matching the
    request process's ``Initialize``, one matching the piece process's,
    then one per hop completion — and performs the phase path's
    observable actions (trace-id allocation, span records) at each.
    The closed-form times priced by :meth:`Node.try_fast_forward` supply
    the span boundaries, so timestamps are the same float expressions
    the phase path evaluates.  DESIGN §6.15 gives the full argument.

    Cost: tracing off, no synth exists; a sampled-out request spends one
    event pop (the decision point, where the counters are fed); a
    sampled-in request spends five pops plus a completion callback —
    still far below the phase path's per-hop process machinery.
    """

    __slots__ = (
        "tracer", "client", "op", "offset", "nbytes", "arch", "stage",
        "trace", "t0", "t1", "t2", "t3", "io_nbytes", "req",
    )

    def __init__(
        self, env: Environment, tracer, client: int, op: str,
        offset: int, nbytes: int, arch: str,
    ):
        self.env = env
        self.callbacks: Optional[list] = [self._fire]
        self._value = None
        self._ok = True
        self._defused = False
        self.tracer = tracer
        self.client = client
        self.op = op
        self.offset = offset
        self.nbytes = nbytes
        self.arch = arch
        self.stage = 0
        self.trace: Optional[int] = None

    def arm(self, t0, t1, t2, t3, io_nbytes, req, done) -> None:
        """Start the stage chain once the eager claims have priced it.

        ``req`` is the preloaded :class:`~repro.hardware.disk.DiskRequest`
        (its ``trace`` field is filled in at stage 0, before the disk's
        completion marker reads it); ``done`` is the completion event —
        its pop schedules the request-epilogue stages.
        """
        self.t0 = t0
        self.t1 = t1
        self.t2 = t2
        self.t3 = t3
        self.io_nbytes = io_nbytes
        self.req = req
        done.callbacks.append(self._on_done)
        env = self.env
        # Urgent at submit time: the pop slot the phase request's
        # Initialize would occupy, so trace ids allocate in submit order.
        heappush(env._queue, (t0, next(env._seq) - _KEY_OFFSET, self))

    def _on_done(self, _event: Event) -> None:
        # The disk completion pop: where the phase piece process would
        # resume and finish (pushing its Process event).  A sampled-out
        # synth (req cleared at stage 0) has nothing left to emit.
        if self.req is None:
            return
        env = self.env
        heappush(env._queue, (env._now, next(env._seq), self))

    def _fire(self, _event: Event) -> None:
        env = self.env
        stage = self.stage
        self.stage = stage + 1
        self.callbacks = [self._fire]
        tracer = self.tracer
        if stage == 0:
            # ≡ Initialize pop: the request body starts; the phase path
            # allocates the trace id here, then spawns the piece
            # process (one urgent push).
            trace = tracer.new_trace()
            self.trace = trace
            self.req.trace = trace
            if not tracer.keeps(trace):
                # Sampled out: no spans will be appended anywhere (the
                # disk marker's record() drops its span by the same
                # hash), so the remaining stages have nothing to do.
                # Feed the per-hop latency histograms the durations the
                # phase path would observe, and stop.
                self._ff_observe(tracer)
                self.req = None  # deadens _on_done
                return
            heappush(env._queue, (self.t0, next(env._seq) - _KEY_OFFSET, self))
        elif stage == 1:
            # ≡ piece-process Initialize pop: the CPU claim's hold
            # draws its key here (normal key at t1).
            heappush(env._queue, (self.t1, next(env._seq), self))
        elif stage == 2:
            # ≡ CPU hold pop: the driver-entry span records, and the
            # SCSI transfer's hold draws its key (normal key at t2).
            tracer.record(
                CPU_DRIVER, f"node{self.client}.cpu", self.t0, self.t1,
                trace=self.trace,
            )
            heappush(env._queue, (self.t2, next(env._seq), self))
        elif stage == 3:
            # ≡ SCSI hold pop: the bus span records.  The disk's own
            # service span is recorded by its completion marker (armed
            # at preload), which also triggers ``done`` → _on_done.
            tracer.record(
                SCSI_TRANSFER, f"node{self.client}.scsi", self.t1, self.t2,
                trace=self.trace, nbytes=self.io_nbytes,
            )
        elif stage == 4:
            # ≡ piece Process pop: the phase path's AllOf condition
            # fires here (one normal push).
            heappush(env._queue, (env._now, next(env._seq), self))
        else:
            # ≡ AllOf pop: the request generator's epilogue records its
            # spans at the completion instant.
            self._ff_final(tracer, env)

    def _ff_observe(self, tracer) -> None:
        """Feed the latency histograms for a sampled-out request — the
        per-hop durations the phase path's ``record`` calls would have
        contributed.  Subclasses with extra epilogue spans add theirs."""
        tracer.observe(CPU_DRIVER, self.t1 - self.t0)
        tracer.observe(SCSI_TRANSFER, self.t2 - self.t1)
        tracer.observe(REQUEST, self.t3 - self.t0)

    def _ff_final(self, tracer, env) -> None:
        """Record the request-epilogue span(s) at the final stage pop.
        Subclasses prepend any span their phase twin records before the
        root REQUEST span (append order is part of the byte-identity
        contract)."""
        tracer.record(
            REQUEST, f"node{self.client}.request", self.t0, env.now,
            trace=self.trace, op=self.op, offset=self.offset,
            nbytes=self.nbytes, arch=self.arch,
        )


class Node:
    """One Trojans-cluster node with ``k`` locally attached disks.

    Disk ids are global: node ``i`` of an n×k array owns disks
    ``i, i+n, i+2n, …`` — matching the paper's Fig. 3 where D_j sits on
    node ``j mod n``.
    """

    def __init__(
        self,
        env: Environment,
        config: ClusterConfig,
        node_id: int,
        disk_ids: List[int],
        scheduler_policy: Optional[str] = None,
        fast_forward: Optional[bool] = None,
    ):
        self.env = env
        self.config = config
        self.node_id = node_id
        self.cpu = Cpu(env, config.cpu, node_id=node_id)
        self.scsi = ScsiBus(env, name=f"scsi{node_id}")
        #: This node's NIC, attached by the cluster wiring (None for a
        #: node built stand-alone); the fast-forward predicate treats a
        #: missing NIC as idle.
        self.nic: Optional["Nic"] = None
        self.fast_forward = (
            NODE_FAST_FORWARD if fast_forward is None else fast_forward
        )
        self.disks: List[Disk] = [
            Disk(
                env,
                params=config.disk,
                disk_id=d,
                scheduler=make_scheduler(scheduler_policy),
                name=f"node{node_id}.disk{d}",
            )
            for d in disk_ids
        ]
        self.disk_ids = list(disk_ids)

    def local_disk(self, disk_id: int) -> Disk:
        """The local :class:`Disk` with the given global id."""
        try:
            return self.disks[self.disk_ids.index(disk_id)]
        except ValueError:
            raise KeyError(
                f"disk {disk_id} is not local to node {self.node_id}"
            ) from None

    def disk_io(self, disk_id: int, op: str, offset: int, nbytes: int,
                priority: int = 0, trace: Optional[int] = None):
        """Process generator: one local disk op through the SCSI bus.

        The SCSI bus and the disk serialize independently; the bus
        transfer is charged for the full payload.
        """
        disk = self.local_disk(disk_id)
        tracer = _obs.TRACER
        if tracer.enabled:
            t0 = self.env.now
            yield self.scsi.transfer(nbytes)
            tracer.record(
                SCSI_TRANSFER,
                f"node{self.node_id}.scsi",
                t0,
                self.env.now,
                trace=trace,
                nbytes=nbytes,
            )
        else:
            yield self.scsi.transfer(nbytes)
        yield disk.submit(op, offset, nbytes, priority=priority, trace=trace)

    def submit_local(self, disk_id: int, op: str, offset: int, nbytes: int,
                     priority: int = 0, trace: Optional[int] = None) -> Event:
        """Run :meth:`disk_io` as a process; returns its completion event."""
        return self.env.process(
            self.disk_io(disk_id, op, offset, nbytes, priority, trace)
        )

    def ff_claim_cpu(self, seconds: float) -> float:
        """Eagerly claim ``seconds`` of CPU work; returns the finish time.

        The link's own reservation (``BandwidthLink._reserve``; the CPU
        work link's rate-1.0 convention carries seconds of work as
        "bytes"), minus the wait — ``outstanding`` stays 0 for the
        window, which is exactly why callers must check the link is idle
        *before* claiming.  Shared by the node fast-forward's
        driver-entry hop (DESIGN §6.14) and the cache stage's memcpy hit
        pricing (DESIGN §6.18).
        """
        now = self.env.now
        return now + self.cpu._work._reserve(seconds, 0.0, now)

    def ff_ready_chain(
        self, disk_id: int, op: str, offset: int, nbytes: int
    ) -> Optional[Disk]:
        """The fast-forward conflict predicate for one local hop chain.

        Returns the target :class:`Disk` when the whole chain is
        conflict-free — CPU and SCSI links idle, NIC quiet, disk parked
        — and ``None`` otherwise.  Checks only; claims nothing, so a
        ``None`` leaves no state behind.
        """
        if not self.fast_forward:
            return None
        cpu_link = self.cpu._work
        scsi_link = self.scsi._link
        if cpu_link.outstanding or scsi_link.outstanding:
            return None
        nic = self.nic
        if nic is not None and not nic.idle:
            return None
        try:
            disk = self.local_disk(disk_id)
        except KeyError:
            return None
        if not disk.ff_ready(op, offset, nbytes):
            return None
        return disk

    def ff_claim_scsi(self, t1: float, nbytes: float) -> float:
        """Eagerly claim a SCSI bus transfer starting no earlier than
        ``t1``; returns the delivery time.  The link's own reservation
        priced at ``t1``, minus the wait — the same eager-claim contract
        as :meth:`ff_claim_cpu` (the caller must have checked the link
        idle before claiming).  The phase twin claims at its CPU hold's
        pop with ``now == t1``, and the reservation starts at
        ``max(t1, _free_at)``, so claiming early yields identical floats
        as long as no other claimant can slot in between — which the CPU
        claim itself guarantees, since every path onto this bus charges
        the CPU first (DESIGN §6.18).
        """
        return t1 + self.scsi._link._reserve(nbytes, 0.0, t1)

    def ff_claim_chain(
        self, disk: Disk, op: str, offset: int, nbytes: int,
        priority: int = 0,
    ):
        """Claim the priced hop chain on a disk :meth:`ff_ready_chain`
        approved: CPU driver entry, SCSI transfer, disk preload.
        Returns ``(t1, t2, done)`` — the CPU and bus release times and
        the completion marker's event.

        The predicate and the claims are split so the cache stage can
        defer the claims to the pop slot where the phase path makes
        them (DESIGN §6.18); the claim arithmetic itself is the link's
        own reservation, and stays valid while the link queue only grows
        behind ``_free_at``.
        """
        # Eager CPU claim for the driver-entry work (see ff_claim_cpu).
        t1 = self.ff_claim_cpu(self.config.cpu.kernel_request_overhead_s)
        t2 = self.ff_claim_scsi(t1, nbytes)
        done = disk.ff_preload(op, offset, nbytes, t2, priority=priority)
        return t1, t2, done

    def try_fast_forward(
        self, disk_id: int, op: str, offset: int, nbytes: int,
        priority: int = 0, synth: Optional[FFSpanSynth] = None,
    ) -> Optional[Event]:
        """Closed-form local pipeline: CPU driver entry → SCSI → disk.

        When this node's whole hop chain is conflict-free — CPU and SCSI
        links idle, NIC quiet, target disk parked — the phase path's
        per-hop event chain collapses to three eager bandwidth-link
        claims priced with *identical float arithmetic* (see DESIGN
        §6.14 for the legality argument), and the disk completion marker
        is armed directly at the closed-form finish time.  Returns the
        completion event, or ``None`` to fall back to the event-driven
        path; a fallback leaves no state behind (all checks precede any
        claim).

        With tracing on the engine passes a :class:`FFSpanSynth`, armed
        here with the priced hop boundaries so the span stream stays
        byte-identical to the phase path (DESIGN §6.15); a fallback
        leaves the synth un-armed and inert.
        """
        disk = self.ff_ready_chain(disk_id, op, offset, nbytes)
        if disk is None:
            return None
        now = self.env.now
        t1, t2, done = self.ff_claim_chain(
            disk, op, offset, nbytes, priority=priority
        )
        if synth is not None:
            # t2 + service is the exact float the completion marker was
            # armed at — the phase path's request end time.
            synth.arm(
                now, t1, t2, t2 + disk._ff_info[0], nbytes,
                disk._ff_req, done,
            )
        return done
