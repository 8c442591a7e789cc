"""A cluster node: CPU + NIC + SCSI bus(es) + local disks."""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, List, Optional

from repro.config import ClusterConfig
from repro.hardware.cpu import Cpu
from repro.hardware.disk import Disk
from repro.hardware.scsi import ScsiBus
from repro.io.scheduler import make_scheduler
from repro.obs import runtime as _obs
from repro.obs.trace import CPU_DRIVER, REQUEST, SCSI_TRANSFER
from repro.sim.core import Environment
from repro.sim.events import Event, PopScript

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.nic import Nic


class FFSpanSynth(PopScript):
    """Lockstep span synthesis for one fast-forwarded request.

    A fast-forwarded local request (a read, or a single-op write, whose
    chain is the same) skips the phase path's request and piece
    processes, but its spans must land at the pops those processes
    would occupy, since the heap breaks same-time ties by keys drawn at
    earlier pops.  With tracing on, :meth:`Node.try_fast_forward` arms
    this chain with its eager claims' times — ``t0`` (submit), ``t1``
    (driver entry done), ``t2`` (bus transfer done) and ``t3`` (disk
    done) — so the request's trace id allocates and its
    ``cpu.driver``/``scsi.transfer``/``request`` spans record at the
    pops the phase path would record them at (DESIGN §6.15; §6.20 has
    the stage table).  The disk's own service span comes from its
    completion marker, which reads the trace id this chain files on the
    preloaded request at its first pop.

    Cost: tracing off, no synth exists; a sampled-out request spends one
    pop (where the latency histograms are fed); a sampled-in request
    spends six pops, one inside the disk completion's.
    """

    __slots__ = (
        "client", "op", "offset", "nbytes", "io_nbytes", "arch", "trace",
        "t0", "t1", "t2", "t3", "req", "done",
    )

    def __init__(
        self, env: Environment, client: int, op: str, offset: int,
        nbytes: int, io_nbytes: int, arch: str,
    ):
        super().__init__(env)
        self.client = client
        self.op = op
        self.offset = offset
        self.nbytes = nbytes
        self.io_nbytes = io_nbytes
        self.arch = arch
        self.trace: Optional[int] = None
        self.t0 = env._now

    def arm(self, t1, t2, t3, req, done) -> None:
        """Start the chain once the eager claims have priced it: ``req``
        is the preloaded disk request, ``done`` its completion event."""
        self.t1 = t1
        self.t2 = t2
        self.t3 = t3
        self.req = req
        self.done = done
        # Urgent at submit time: the pop slot the phase request's
        # Initialize would occupy, so trace ids allocate in submit order.
        self.urgent()

    def _request_init(self, _event: Event) -> None:
        # ≡ request Initialize pop: the trace id allocates, then the
        # piece process spawns (one urgent push).
        tracer = _obs.TRACER
        trace = self.trace = self.req.trace = tracer.new_trace()
        if not tracer.keeps(trace):
            # Sampled out: no span will be kept (the disk marker's
            # record() drops its span by the same hash), so stop here
            # after feeding the latency histograms the durations the
            # phase path's records would.
            tracer.observe(CPU_DRIVER, self.t1 - self.t0)
            tracer.observe(SCSI_TRANSFER, self.t2 - self.t1)
            tracer.observe(REQUEST, self.t3 - self.t0)
            return
        self.urgent()

    def _piece_init(self, _event: Event) -> None:
        # ≡ piece Initialize pop: the claims were eager, so only the
        # CPU hold's key (normal, at t1) is drawn here.
        self.at(self.t1)

    def _cpu_hold(self, _event: Event) -> None:
        # ≡ CPU hold pop: the driver-entry span records; the SCSI
        # hold's key at t2 is drawn.
        _obs.TRACER.record(
            CPU_DRIVER, f"node{self.client}.cpu", self.t0, self.t1,
            trace=self.trace,
        )
        self.at(self.t2)

    def _scsi_hold(self, _event: Event) -> None:
        # ≡ SCSI hold pop: the bus span records, then the piece submits
        # its request to the disk.  The request was preloaded at
        # submit: the next stage runs in its completion's pop, ahead of
        # the workload's callbacks.
        _obs.TRACER.record(
            SCSI_TRANSFER, f"node{self.client}.scsi", self.t1, self.t2,
            trace=self.trace, nbytes=self.io_nbytes,
        )
        self.on(self.done)

    def _disk_done(self, _event: Event) -> None:
        # ≡ disk completion pop: the piece process finishes (its
        # Process event, one normal push).
        self.at(self.env._now)

    def _piece_process(self, _event: Event) -> None:
        # ≡ piece Process pop: the request's AllOf fires (one push).
        self.at(self.env._now)

    def _allof(self, _event: Event) -> None:
        # ≡ AllOf pop: the request generator resumes and finishes; its
        # epilogue records the root span.
        _obs.TRACER.record(
            REQUEST, f"node{self.client}.request", self.t0, self.env._now,
            trace=self.trace, op=self.op, offset=self.offset,
            nbytes=self.nbytes, arch=self.arch,
        )

    STAGES = (
        _request_init, _piece_init, _cpu_hold, _scsi_hold, _disk_done,
        _piece_process, _allof,
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
        self._disk_by_id = dict(zip(self.disk_ids, self.disks))
        #: Fast-forward refusals by reason (:meth:`try_fast_forward`).
        self.ff_fallbacks: Counter = Counter()

    def local_disk(self, disk_id: int) -> Disk:
        """The local :class:`Disk` with the given global id."""
        disk = self._disk_by_id.get(disk_id)
        if disk is None:
            raise KeyError(
                f"disk {disk_id} is not local to node {self.node_id}"
            )
        return disk

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

    def ff_claim_cpu(self, seconds: float) -> float:
        """Eagerly claim ``seconds`` of CPU work; returns the finish time.

        The link's own reservation (``BandwidthLink._reserve``; the CPU
        work link's rate-1.0 convention carries seconds of work as
        "bytes"), minus the wait — ``outstanding`` stays 0 for the
        window, which is exactly why callers must check the link is idle
        *before* claiming: the node fast-forward's driver-entry hop
        (DESIGN §6.14).
        """
        now = self.env._now
        return now + self.cpu._work._reserve(seconds, 0.0, now)

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
        the CPU first (DESIGN §6.14).
        """
        return t1 + self.scsi._link._reserve(nbytes, 0.0, t1)

    def _fall_back(self, reason: str) -> None:
        self.ff_fallbacks[reason] += 1
        return None

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
        claim) but its reason's count in ``ff_fallbacks``.

        With tracing on the engine passes a :class:`FFSpanSynth`, armed
        here with the priced hop boundaries so the span stream stays
        byte-identical to the phase path (DESIGN §6.15); a fallback
        leaves the synth un-armed and inert.
        """
        if self.cpu._work.outstanding:
            return self._fall_back("cpu_busy")
        if self.scsi._link.outstanding:
            return self._fall_back("scsi_busy")
        # A transfer in flight on either NIC direction means remote
        # traffic may contend for this node's CPU before the priced
        # request would release it.
        nic = self.nic
        if nic is not None and (nic.tx.outstanding or nic.rx.outstanding):
            return self._fall_back("nic_busy")
        disk = self._disk_by_id.get(disk_id)
        if disk is None:
            return self._fall_back("not_local_disk")
        if not disk.ff_ready(op, offset, nbytes):
            # Busy: the disk holds a request in flight.  Otherwise it
            # has failed, or the op would not validate.
            return self._fall_back(
                "disk_busy" if disk.queue_depth else "disk_refused"
            )
        # The three eager claims: CPU driver entry, SCSI transfer, disk
        # preload — each the link's own reservation (see ff_claim_cpu).
        t1 = self.ff_claim_cpu(self.config.cpu.kernel_request_overhead_s)
        t2 = self.ff_claim_scsi(t1, nbytes)
        done = disk.ff_preload(op, offset, nbytes, t2, priority)
        if synth is not None:
            # t2 + service is the exact float the completion marker was
            # armed at — the phase path's request end time.
            synth.arm(t1, t2, t2 + disk._ff_info[0], disk._ff_req, done)
        return done
