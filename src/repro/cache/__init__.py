"""repro.cache — the buffer-cache layer of the I/O path.

A fixed-capacity block cache per node, sitting between the execution
engine's request admission and plan execution (DESIGN §6.17):

* pluggable eviction (:mod:`repro.cache.policy`: LRU and ARC);
* a per-block clean/dirty/destaging state machine
  (:mod:`repro.cache.block`, :mod:`repro.cache.core`);
* write-back vs write-through modes (:mod:`repro.cache.config`);
* read-modify-write absorption — the cache remembers which dirty
  blocks it can supply *pre-write* content for, so partial-stripe
  destages skip the RAID-5 old-data pre-reads;
* destage planning (:mod:`repro.cache.destage`): threshold, idle, and
  mirror-coalescing policies that fold dirty blocks into long
  contiguous runs (one orthogonal RAID-x image write per mirror group);
* the write-invalidate consistency protocol of the paper's §4,
  subsumed from the old ``repro.cluster.cache`` shim
  (:mod:`repro.cache.coherence`).

This package is *pure bookkeeping*: no simulator imports, no process
generators, no hardware — the cluster-layer
:class:`~repro.cluster.cache_stage.CacheStage` owns all timing.  The
ARCH lint rules (:mod:`repro.lint.rules_arch`) enforce both directions
of that boundary.  Caching is opt-in per system (the
``cache=`` argument), and a system built without it stays
byte-identical to the golden captures.
"""

from repro.cache.block import BlockState, CacheStats
from repro.cache.config import CacheConfig
from repro.cache.coherence import CacheDirectory
from repro.cache.core import BlockCache, WriteAdmission
from repro.cache.destage import (
    DestagePolicy,
    DestageRun,
    IdleDestage,
    MirrorCoalescingDestage,
    ThresholdDestage,
    coalesce_runs,
    make_destage_policy,
)
from repro.cache.policy import (
    ARCPolicy,
    EvictionPolicy,
    LRUPolicy,
    make_policy,
)

__all__ = [
    "ARCPolicy",
    "BlockCache",
    "BlockState",
    "CacheConfig",
    "CacheDirectory",
    "CacheStats",
    "DestagePolicy",
    "DestageRun",
    "EvictionPolicy",
    "IdleDestage",
    "LRUPolicy",
    "MirrorCoalescingDestage",
    "ThresholdDestage",
    "WriteAdmission",
    "coalesce_runs",
    "make_destage_policy",
    "make_policy",
]
