"""The request envelope: trace id, byte accounting and ``REQUEST`` span.

Every request that runs ends in the same epilogue, but the three
request paths differ in what they wrap it around, and those
differences are behaviour:

* an uncached array's zero-length request has no pieces, so it
  allocates no trace id, records no span and counts no bytes;
* a zero-length request through the buffer cache or to NFS still gets
  a trace id and a span;
* a failed request records its span, without counting its bytes, on
  the uncached and cached paths; on NFS a failed RPC propagates past
  the epilogue, so it records no span at all.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.errors import DegradedModeError
from repro.obs import runtime as obs_runtime
from repro.obs.trace import REQUEST
from tests.conftest import small_config

BS = 32 * 1024


def _build(arch: str, cached: bool, k: int = 1):
    kw = {}
    if cached:
        kw["cache"] = CacheConfig(capacity_blocks=64)
    cluster = build_cluster(small_config(n=4, k=k), architecture=arch, **kw)
    if hasattr(cluster.storage, "node_ff"):
        cluster.storage.node_ff = False
    return cluster


def _run_traced(cluster, requests):
    """Submit ``requests`` at time 0 and run to the end under a fresh
    tracer; returns (REQUEST spans, trace ids allocated, outcomes)."""
    storage = cluster.storage
    outcomes = []

    def outcome(event):
        if not event._ok:
            event.defused()
        outcomes.append(event._ok)

    with obs_runtime.tracing() as tracer:
        for client, op, offset, nbytes in requests:
            storage.submit(client, op, offset, nbytes).callbacks.append(
                outcome
            )
        cluster.env.run()
        allocated = tracer.new_trace() - 1
    spans = [s for s in tracer.spans if s.kind == REQUEST]
    return spans, allocated, outcomes


#: (arch, cached): the uncached and cached serverless paths, and NFS.
PATHS = [("raidx", False), ("raid5", False), ("raidx", True),
         ("raid5", True), ("nfs", False)]
IDS = ["raidx", "raid5", "raidx-cache", "raid5-cache", "nfs"]


@pytest.mark.parametrize("arch,cached", PATHS, ids=IDS)
def test_zero_length_requests(arch, cached):
    cluster = _build(arch, cached)
    spans, allocated, outcomes = _run_traced(
        cluster, [(0, "read", 0, 0), (1, "write", BS, 0), (0, "read", 0, BS)]
    )
    assert outcomes == [True, True, True]
    if arch != "nfs" and not cached:
        # Only the one-block read gets a trace id and a span.
        assert allocated == 1
        assert [(s.args["nbytes"], s.trace) for s in spans] == [(BS, 1)]
    else:
        assert allocated == 3
        assert sorted((s.args["nbytes"], s.args["op"]) for s in spans) == [
            (0, "read"), (0, "write"), (BS, "read"),
        ]
        assert sorted(s.trace for s in spans) == [1, 2, 3]
    assert cluster.storage.bytes_read == BS
    assert cluster.storage.bytes_written == 0


@pytest.mark.parametrize(
    "arch,cached", [("raid0", False), ("raid0", True), ("nfs", False)],
    ids=["raid0", "raid0-cache", "nfs"],
)
def test_failed_request_span(arch, cached):
    """A read of a block whose only copy sits on a failed disk fails;
    the good read beside it completes either way.  Two disks per node
    give the NFS server a second disk: on both layouts block 0 lives on
    the failed disk and block 1 on another."""
    cluster = _build(arch, cached, k=2)
    storage = cluster.storage
    with pytest.raises(DegradedModeError):
        storage.fail_disk(cluster.nodes[0].disk_ids[0])
    bad, good = 0, BS
    spans, allocated, outcomes = _run_traced(
        cluster, [(1, "read", bad, BS), (1, "read", good, BS)]
    )
    assert sorted(outcomes) == [False, True]
    assert allocated == 2
    assert storage.bytes_read == BS
    offsets = sorted(s.args["offset"] for s in spans)
    if arch == "nfs":
        assert offsets == [good]
    else:
        assert offsets == [bad, good]
