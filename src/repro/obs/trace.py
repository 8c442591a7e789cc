"""Span-based request tracing over simulated time.

A *span* is one timed piece of work on a named *track* — a disk, a NIC
direction, a node's CPU, a lock home.  Spans carry a *kind* from the
taxonomy below, an optional *trace id* linking every span caused by one
logical request, and free-form args.

Because the simulator is a single-threaded discrete-event kernel, span
starts are known exactly at completion time (``submitted_at``, the time
before a ``yield``), so the whole API is the one-shot :meth:`Tracer.record`
— no open-span stacks, no context-local state, no clock reads beyond the
simulation's own ``env.now``.

When tracing is off the process-wide slot holds :data:`NULL_TRACER`
(``enabled = False``); instrumentation sites check that flag and skip
all span work, keeping the disabled overhead to one attribute read and
one branch per potential span (guarded by the perf-smoke floors).
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional, Set

from repro.obs.metrics import MetricsRegistry

# -- span taxonomy -------------------------------------------------------
#: Root span of one logical request against the storage system.
REQUEST = "request"
#: Time a disk request waited in the per-disk queue before service.
DISK_QUEUE_WAIT = "disk.queue_wait"
#: Seek + rotation + media transfer at the disk (args carry the split).
DISK_SERVICE = "disk.service"
#: NIC transmit occupancy (first byte handed to TX → last fragment sent).
NET_TX = "net.tx"
#: NIC receive occupancy (first fragment reserved → last byte landed).
NET_RX = "net.rx"
#: Wait for a write-lock group grant (distributed or stripe-local).
LOCK_WAIT = "lock.wait"
#: Background image flush: data commit → image extent on disk
#: (the RAID-x vulnerability window).
MIRROR_FLUSH = "mirror.flush"
#: Kernel driver-entry CPU charge on the request path.
CPU_DRIVER = "cpu.driver"
#: Protocol-stack CPU charge at a message endpoint (or loopback memcpy).
CPU_PROTO = "cpu.proto"
#: SCSI bus occupancy between host and local disk.
SCSI_TRANSFER = "scsi.transfer"
#: Checkpoint marker exchange + barrier (the "S" overhead of Fig. 7).
CKPT_SYNC = "ckpt.sync"
#: Checkpoint state write (the "C" overhead of Fig. 7).
CKPT_WRITE = "ckpt.write"
#: Buffer-cache admission/lookup stage: one logical request's cache
#: pass (hits served by memcpy, misses filled through the engine).
CACHE_LOOKUP = "cache.lookup"
#: One destage run: dirty blocks written back through the engine.
CACHE_DESTAGE = "cache.destage"

SPAN_KINDS = (
    REQUEST,
    DISK_QUEUE_WAIT,
    DISK_SERVICE,
    NET_TX,
    NET_RX,
    LOCK_WAIT,
    MIRROR_FLUSH,
    CPU_DRIVER,
    CPU_PROTO,
    SCSI_TRANSFER,
    CKPT_SYNC,
    CKPT_WRITE,
    CACHE_LOOKUP,
    CACHE_DESTAGE,
)


class Span:
    """One recorded span: ``[start, end]`` of ``kind`` on ``track``."""

    __slots__ = ("kind", "track", "start", "end", "trace", "args")

    def __init__(
        self,
        kind: str,
        track: str,
        start: float,
        end: float,
        trace: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.kind = kind
        self.track = track
        self.start = start
        self.end = end
        self.trace = trace
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "track": self.track,
            "start": self.start,
            "end": self.end,
        }
        if self.trace is not None:
            out["trace"] = self.trace
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.kind!r}, {self.track!r}, "
            f"{self.start:.6f}..{self.end:.6f}, trace={self.trace})"
        )


_MASK64 = (1 << 64) - 1


class Tracer:
    """Collects spans and feeds per-kind latency histograms.

    ``label`` (e.g. the RAID level under test) namespaces both the
    tracks (``raidx/node0.disk1``) and a second set of histogram keys
    (``raidx:disk.service``), so one tracer can hold several runs —
    RAID-x vs RAID-5 — side by side for direct comparison.

    ``sample_rate`` < 1.0 turns on deterministic trace sampling: each
    trace id is kept or dropped by a seeded integer hash (no RNG state,
    no draw order), so the same id gets the same decision in every
    process — a sharded sweep samples coherently.  Sampled-out requests
    append no spans but still feed every latency histogram and counter:
    percentiles stay exact over the full population while span memory
    scales with the rate.  Spans recorded without a trace id (background
    flushes, checkpoints) are always kept.
    """

    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        label: str = "",
        sample_rate: float = 1.0,
        sample_seed: int = 0,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.spans: List[Span] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.label = label
        self.sample_rate = sample_rate
        self.sample_seed = sample_seed
        self._sample_all = sample_rate >= 1.0
        self._trace_ids = count(1)

    # -- recording -------------------------------------------------------
    def new_trace(self) -> int:
        """A fresh trace id linking the spans of one logical request."""
        return next(self._trace_ids)

    def keeps(self, trace: Optional[int]) -> bool:
        """The deterministic per-trace sampling decision.

        A pure splitmix64-style finalizer over ``trace ^ sample_seed``
        mapped to [0, 1): stateless, order-independent, identical across
        processes.  Untraced spans (``trace is None``) are always kept.
        """
        if trace is None or self._sample_all:
            return True
        x = (trace ^ self.sample_seed) & _MASK64
        x = (x * 0x9E3779B97F4A7C15) & _MASK64
        x ^= x >> 29
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 32
        return (x >> 11) * 2.0 ** -53 < self.sample_rate

    def record(
        self,
        kind: str,
        track: str,
        start: float,
        end: float,
        trace: Optional[int] = None,
        **args: Any,
    ) -> Optional[Span]:
        """Record one completed span and update the latency metrics.

        Metrics are fed unconditionally; the span itself is appended
        only when the trace passes :meth:`keeps` — sampling thins span
        storage, never the statistics.
        """
        label = self.label
        if label:
            track = f"{label}/{track}"
        span = None
        if self._sample_all or self.keeps(trace):
            span = Span(kind, track, start, end, trace, args or None)
            self.spans.append(span)
        duration = end - start
        self.metrics.observe(kind, duration)
        if label:
            self.metrics.observe(f"{label}:{kind}", duration)
        return span

    def observe(self, kind: str, duration: float) -> None:
        """Feed the latency histograms exactly as :meth:`record` would.

        Used where a span's append is elided (a sampled-out request on
        the fast-forward path) but its statistics must still land.
        """
        self.metrics.observe(kind, duration)
        if self.label:
            self.metrics.observe(f"{self.label}:{kind}", duration)

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a registry counter (label-prefixed when a label is set)."""
        if self.label:
            name = f"{self.label}:{name}"
        self.metrics.inc(name, delta)

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def kinds(self) -> Set[str]:
        return {s.kind for s in self.spans}

    def by_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    def tracks(self) -> List[str]:
        return sorted({s.track for s in self.spans})

    def by_trace(self, trace: int) -> List[Span]:
        return [s for s in self.spans if s.trace == trace]

    def clear(self) -> None:
        self.spans.clear()
        self.metrics.clear()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumentation sites check :attr:`enabled` before doing any span
    work, so in practice only that flag is ever read; the no-op methods
    exist for code that records unconditionally (tests, examples).
    """

    enabled = False
    spans: tuple = ()
    label = ""
    metrics = None

    def new_trace(self) -> None:
        return None

    def keeps(self, trace: Optional[int]) -> bool:
        return False

    def record(self, *args: Any, **kwargs: Any) -> None:
        return None

    def observe(self, *args: Any, **kwargs: Any) -> None:
        return None

    def count(self, *args: Any, **kwargs: Any) -> None:
        return None

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: The process-wide disabled singleton (see :mod:`repro.obs.runtime`).
NULL_TRACER = NullTracer()
