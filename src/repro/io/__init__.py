"""I/O path helpers: block splitting and per-disk queue disciplines."""

from repro.io.request import split_into_blocks
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
    "split_into_blocks",
]
