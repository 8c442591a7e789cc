"""Reduced-scale determinism check for the seeded benchmarks.

Runs the Fig. 5 bandwidth sweep and the A7 degraded-mode sweep at a
fraction of their benchmark scale and prints one canonical JSON line
per measurement row, with every float rendered as ``float.hex()`` so
no drift can hide behind decimal rounding.  The tier-1 test
``tests/cluster/test_engine_equivalence.py::test_reduced_rows_match_golden``
compares these rows, with the node fast-forward off and on, to the
committed ``benchmarks/golden_fig5_reduced.txt``.  The simulator is
seeded and single-threaded, so a single changed byte means either a
change of simulated behaviour or a nondeterministic code path
(iteration over an unordered set, an id()-keyed dict, a wall-clock
read) in the I/O stack.

Each row also carries ``completions``, a sha256 over every request's
completion time in completion order.  A request off the critical path
(say, one read of a client's four in flight) moves no elapsed time
when its completion drifts, but it moves this digest.

Usage::

    PYTHONPATH=src python benchmarks/determinism_check.py > rows.txt
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro.bench.experiments import FIG_ARCHS, run_parallel_io
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.units import KiB
from repro.workloads.parallel_io import ParallelIOWorkload

# Reduced scale: 2 client counts x 2 workloads x 4 archs (vs. the full
# 5 x 4 x 4 grid) keeps each golden comparison under a second.
FIG5_CLIENTS = (1, 4)
FIG5_WORKLOADS = ("large_read", "small_write")

DEGRADED_ARCHS = ("raid5", "raid10", "chained", "raidx")
FAILED_DISK = 3


def _hexfloat(value):
    if isinstance(value, float):
        return value.hex()
    return value


def _canon(kind: str, row: dict) -> str:
    return json.dumps(
        {"kind": kind, **{k: _hexfloat(v) for k, v in sorted(row.items())}},
        sort_keys=True,
    )


def _completions(storage):
    """Record the completion time of every request ``storage`` is
    submitted from now on; returns the (growing) list of float hex
    strings.  The recorder is one more callback on each completion
    event: it draws no heap key, so it moves no simulated time."""
    times = []
    submit = storage.submit
    env = storage.env

    def recorded(client, op, offset, nbytes):
        done = submit(client, op, offset, nbytes)
        done.callbacks.append(lambda _ev: times.append(env.now.hex()))
        return done

    storage.submit = recorded
    return times


def _digest(times) -> str:
    return hashlib.sha256("\n".join(times).encode()).hexdigest()


def fig5_rows():
    """Fig. 5 at reduced scale, in ``fig5_bandwidth``'s grid order.

    Each row carries ``mb_s`` rounded as Fig. 5 publishes it and the
    point's unrounded simulated ``elapsed_s``, so a sub-percent timing
    drift cannot hide behind the rounding.  The points are simulated
    afresh (never served from the sweep cache): the point of this check
    is to re-simulate and diff.
    """
    for workload in FIG5_WORKLOADS:
        for arch in FIG_ARCHS:
            for clients in FIG5_CLIENTS:
                wl = run_parallel_io(arch, clients, workload)
                times = _completions(wl.cluster.storage)
                r = wl.run()
                yield _canon(
                    "fig5",
                    {
                        "architecture": arch,
                        "clients": clients,
                        "completions": _digest(times),
                        "elapsed_s": r.elapsed,
                        "mb_s": round(r.aggregate_bandwidth_mb_s, 2),
                        "workload": workload,
                    },
                )


def degraded_rows():
    """A7 at reduced scale: 4 clients, 256 KiB reads, full float precision."""
    for arch in DEGRADED_ARCHS:
        cluster = build_cluster(trojans_cluster(), architecture=arch)
        times = _completions(cluster.storage)

        def bandwidth():
            wl = ParallelIOWorkload(cluster, 4, op="read", size=256 * KiB)
            return wl.run().aggregate_bandwidth_mb_s

        healthy = bandwidth()
        cluster.storage.fail_disk(FAILED_DISK)
        degraded = bandwidth()
        yield _canon(
            "degraded",
            {
                "architecture": arch,
                "completions": _digest(times),
                "healthy_mb_s": healthy,
                "degraded_mb_s": degraded,
                "final_time": cluster.env.now,
            },
        )


def main() -> int:
    for line in fig5_rows():
        print(line)
    for line in degraded_rows():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
