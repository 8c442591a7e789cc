"""The submit contract: a rejected request moves nothing.

``StorageSystem.submit`` checks every request once, before the fast
path, a counter or the event queue sees it:

* an ``op`` other than ``"read"``/``"write"`` raises ``ValueError``;
* a client outside ``[0, n_nodes)`` raises ``ValueError``;
* a non-integral client, offset or size (NaN included) raises
  ``TypeError``;
* a byte range outside the device raises ``AddressError``.

So the same bad request is rejected the same way on every path: RAID-x
and RAID-5 with the buffer cache and the node fast-forward each on and
off, and NFS with its server cache on and off.  After the rejection the
simulated state — clock, queue, sequence counter, path counters, byte
accounting, the ``collect_load`` payload — is what it was, and the
system still serves a valid request.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.errors import AddressError
from repro.obs.load import collect_load
from tests.conftest import small_config

N_NODES = 4

#: (arch, cached, node_ff); NFS has no node fast-forward, and its cache
#: is the server's buffer cache.
SYSTEMS = [
    (arch, cached, node_ff)
    for arch in ("raidx", "raid5")
    for cached in (False, True)
    for node_ff in (False, True)
] + [("nfs", cached, False) for cached in (False, True)]


def _system_id(arch, cached, node_ff):
    return f"{arch}-{'cached' if cached else 'uncached'}-ff{int(node_ff)}"


#: id -> (client, op, offset(capacity, block size), nbytes(block size),
#: expected error)
BAD_REQUESTS = {
    "op-misspelt": (0, "reed", lambda cap, bs: 0, lambda bs: bs, ValueError),
    "op-none": (0, None, lambda cap, bs: 0, lambda bs: bs, ValueError),
    "client-negative": (
        -1, "read", lambda cap, bs: 0, lambda bs: bs, ValueError
    ),
    "client-past-end": (
        7, "read", lambda cap, bs: 0, lambda bs: bs, ValueError
    ),
    "client-float": (
        0.5, "read", lambda cap, bs: 0, lambda bs: bs, TypeError
    ),
    "offset-nan": (
        0, "read", lambda cap, bs: math.nan, lambda bs: bs, TypeError
    ),
    "nbytes-nan": (
        0, "read", lambda cap, bs: 0, lambda bs: math.nan, TypeError
    ),
    "offset-float": (
        0, "write", lambda cap, bs: 4096.0, lambda bs: bs, TypeError
    ),
    "offset-negative": (
        0, "read", lambda cap, bs: -4096, lambda bs: 4096, AddressError
    ),
    "offset-past-capacity": (
        0, "read", lambda cap, bs: cap, lambda bs: bs, AddressError
    ),
    "write-straddles-end": (
        1, "write", lambda cap, bs: cap - bs // 2, lambda bs: bs,
        AddressError,
    ),
    "nbytes-negative": (
        0, "read", lambda cap, bs: 0, lambda bs: -5, AddressError
    ),
}


def _build(arch, cached, node_ff):
    if arch == "nfs":
        cluster = build_cluster(
            small_config(n=N_NODES), architecture="nfs",
            server_cache_mb=128 if cached else 0,
        )
    else:
        cluster = build_cluster(
            small_config(n=N_NODES), architecture=arch,
            cache=CacheConfig(capacity_blocks=64) if cached else None,
        )
        cluster.storage.node_ff = node_ff
    return cluster


def _snapshot(cluster):
    env = cluster.env
    storage = cluster.storage
    engine = getattr(storage, "engine", None)
    return {
        "now": env.now,
        "queue": list(env._queue),
        "next_key": next(copy.copy(env._seq)),
        "processed_events": env.processed_events,
        "bytes": (storage.bytes_read, storage.bytes_written),
        "engine": None if engine is None else (
            engine.fast_submits,
            engine.phase_submits,
            list(engine.phase_inflight),
        ),
        "load": collect_load(cluster).to_payload(),
    }


@pytest.mark.parametrize(
    "arch,cached,node_ff", SYSTEMS, ids=[_system_id(*s) for s in SYSTEMS]
)
@pytest.mark.parametrize("bad", sorted(BAD_REQUESTS))
def test_rejected_submit_moves_nothing(arch, cached, node_ff, bad):
    cluster = _build(arch, cached, node_ff)
    storage = cluster.storage
    bs = storage.block_size
    # A valid request in flight, so the state the rejection must leave
    # alone is not all zeros.
    first = storage.submit(0, "read", 0, bs)
    before = _snapshot(cluster)
    client, op, offset, nbytes, error = BAD_REQUESTS[bad]
    with pytest.raises(error):
        storage.submit(client, op, offset(storage.capacity, bs), nbytes(bs))
    assert _snapshot(cluster) == before
    # The system still serves: both requests complete.
    second = storage.submit(1, "write", bs, bs)
    cluster.env.run()
    assert first.ok and second.ok
    assert storage.bytes_read == bs and storage.bytes_written == bs


@pytest.mark.parametrize(
    "arch,cached,node_ff", SYSTEMS, ids=[_system_id(*s) for s in SYSTEMS]
)
def test_boundary_requests_are_accepted(arch, cached, node_ff):
    """The edges of the contract: the last block, a zero-length request
    at the end of the device, and the last client."""
    cluster = _build(arch, cached, node_ff)
    storage = cluster.storage
    bs = storage.block_size
    cap = storage.capacity
    events = [
        storage.submit(N_NODES - 1, "read", cap - bs, bs),
        storage.submit(0, "write", cap - bs, bs),
        storage.submit(0, "read", cap, 0),
    ]
    cluster.env.run()
    assert all(ev.ok for ev in events)
    assert storage.bytes_read == bs and storage.bytes_written == bs
