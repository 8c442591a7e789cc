"""I/O path helpers: per-disk queue disciplines."""

from repro.io.scheduler import (
    DiskScheduler,
    FifoScheduler,
    LookScheduler,
    SstfScheduler,
    make_scheduler,
)

__all__ = [
    "DiskScheduler",
    "FifoScheduler",
    "LookScheduler",
    "SstfScheduler",
    "make_scheduler",
]
