"""Observability: span tracing, metrics, load accounting, exporters.

The subsystem has five parts (DESIGN.md §6.10, §6.15):

* :mod:`repro.obs.trace` — a :class:`Tracer` recording typed spans
  (disk queue wait, disk service, NIC tx/rx, lock wait, background
  mirror flush, …) against named tracks, with a no-op
  :data:`NULL_TRACER` standing in when tracing is off;
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters and log-bucketed latency histograms (p50/p95/p99/max);
* :mod:`repro.obs.runtime` — the process-wide tracer slot the
  instrumentation sites read (``runtime.TRACER``), with
  :func:`~repro.obs.runtime.install` / :func:`~repro.obs.runtime.reset`
  and the :func:`~repro.obs.runtime.tracing` context manager;
* :mod:`repro.obs.export` — JSONL span logs and Chrome trace-event JSON
  (duration spans plus queue-depth / link-occupancy counter tracks)
  viewable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
* :mod:`repro.obs.load` — on-demand collection of the always-on
  hardware load counters (disk busy/bytes/queue-depth high-water,
  CPU/SCSI/NIC link time) into a shard-mergeable registry.

Instrumentation sites pay one module-attribute read plus one boolean
check per potential span when tracing is disabled; the perf-smoke floors
in ``tests/test_perf_smoke.py`` pin the overhead budget.
"""

from repro.obs.metrics import Counter, LogHistogram, MetricsRegistry
from repro.obs.trace import (
    CKPT_SYNC,
    CKPT_WRITE,
    CPU_DRIVER,
    CPU_PROTO,
    DISK_QUEUE_WAIT,
    DISK_SERVICE,
    LOCK_WAIT,
    MIRROR_FLUSH,
    NET_RX,
    NET_TX,
    NULL_TRACER,
    REQUEST,
    SCSI_TRANSFER,
    SPAN_KINDS,
    NullTracer,
    Span,
    Tracer,
)
from repro.obs.export import (
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.load import collect_load, disk_utilizations, utilization_skew
from repro.obs import runtime

__all__ = [
    "Counter",
    "LogHistogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SPAN_KINDS",
    "REQUEST",
    "DISK_QUEUE_WAIT",
    "DISK_SERVICE",
    "NET_TX",
    "NET_RX",
    "LOCK_WAIT",
    "MIRROR_FLUSH",
    "CPU_DRIVER",
    "CPU_PROTO",
    "SCSI_TRANSFER",
    "CKPT_SYNC",
    "CKPT_WRITE",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "collect_load",
    "disk_utilizations",
    "utilization_skew",
    "runtime",
]
