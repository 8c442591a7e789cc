"""Cache configuration.

A system caches only when handed an explicit :class:`CacheConfig` —
the default is *no cache layer at all*, which is what keeps the golden
equivalence captures byte-identical.  The ``cache=`` argument is the
one switch: a system built without it has no cache stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from repro.errors import ConfigurationError

#: Write admission modes: ``writeback`` dirties blocks in memory and
#: destages later; ``writethrough`` commits to disk first and caches
#: the clean copy.
MODES = ("writeback", "writethrough")
#: Eviction policies (see :mod:`repro.cache.policy`).
POLICIES = ("lru", "arc")
#: Destage trigger/selection policies (see :mod:`repro.cache.destage`).
DESTAGE_POLICIES = ("threshold", "idle", "mirror")


@dataclass(frozen=True)
class CacheConfig:
    """Per-system buffer-cache configuration (immutable).

    ``dirty_fraction`` sets the threshold-destage trigger as a fraction
    of capacity; ``destage_batch`` bounds how many blocks one sweep may
    destage.  ``track_blocks`` keeps exact per-block destaged/lost sets
    on the cache — test instrumentation for the exactly-once property,
    off by default so steady-state memory stays O(capacity).
    """

    capacity_blocks: int = 1024
    mode: str = "writeback"
    policy: str = "lru"
    destage: str = "threshold"
    dirty_fraction: float = 0.5
    destage_batch: int = 64
    track_blocks: bool = False

    def __post_init__(self) -> None:
        """Reject a malformed config at construction.  The two block
        counts must be integers (else :class:`TypeError`, NaN included,
        as the submit contract checks request sizes) and positive."""
        if index(self.capacity_blocks) <= 0:
            raise ConfigurationError("cache capacity must be positive")
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown cache mode {self.mode!r}; choose from {MODES}"
            )
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown cache policy {self.policy!r}; "
                f"choose from {POLICIES}"
            )
        if self.destage not in DESTAGE_POLICIES:
            raise ConfigurationError(
                f"unknown destage policy {self.destage!r}; "
                f"choose from {DESTAGE_POLICIES}"
            )
        if not 0.0 < self.dirty_fraction <= 1.0:
            raise ConfigurationError("dirty_fraction must be in (0, 1]")
        if index(self.destage_batch) <= 0:
            raise ConfigurationError("destage_batch must be positive")

    @property
    def writeback(self) -> bool:
        return self.mode == "writeback"

    @property
    def threshold_blocks(self) -> int:
        """Dirty-block count that arms the threshold destage trigger."""
        return max(1, int(self.dirty_fraction * self.capacity_blocks))
