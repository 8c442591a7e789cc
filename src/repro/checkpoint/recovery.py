"""Rollback recovery from striped checkpoints.

Two failure classes, per the paper's §6:

* **transient** — the node restarts with its disks intact.  On RAID-x
  with local-image placement, the process state is read back from the
  *local* mirror images: long sequential extents, no network at all.
* **permanent** — the node's disk is lost.  The state is re-read through
  the striped data blocks (degraded mode if the failed disk held any).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import CheckpointError
from repro.raid.raidx import RaidxLayout


@dataclass
class RecoveryResult:
    """Timing of one process's state recovery."""

    kind: str
    process: int
    nbytes: int
    elapsed: float
    used_local_mirror: bool

    @property
    def bandwidth_mb_s(self) -> float:
        if self.elapsed <= 0:
            return float("nan")
        return self.nbytes / 1e6 / self.elapsed


def recover(run, process: int, kind: str = "transient") -> RecoveryResult:
    """Recover one process's checkpoint; returns the timing result.

    ``run`` is a completed :class:`~repro.checkpoint.coordinated.CheckpointRun`.
    """
    if kind not in ("transient", "permanent"):
        raise CheckpointError(f"unknown failure kind {kind!r}")
    cluster = run.cluster
    env = cluster.env
    storage = cluster.storage
    layout = getattr(storage, "layout", None)
    node = run.node_of_process(process)
    blocks = run.region_blocks(process)
    bs = storage.block_size
    nbytes = run.config.state_bytes

    use_local = (
        kind == "transient"
        and run.config.local_images
        and isinstance(layout, RaidxLayout)
    )
    start = env.now

    def read_local_images():
        # Gather the image extents (mirror groups are contiguous runs on
        # the local disk) and read each with one long local request.
        extents = {}
        for b in blocks:
            _group, disk, base, pos = layout.mirror_slot(b)
            key = (disk, base)
            lo, hi = extents.get(key, (pos, pos + 1))
            extents[key] = (min(lo, pos), max(hi, pos + 1))
        cdd = cluster.cdds[node]
        events = []
        for (disk, base), (lo, hi) in sorted(extents.items()):
            if disk % cluster.n_nodes != node:
                raise CheckpointError(
                    "local-image recovery requires local placement"
                )
            events.append(
                cdd.submit("read", disk, base + lo * bs, (hi - lo) * bs)
            )
        if events:
            yield env.all_of(events)

    def read_striped():
        inflight: List = []
        remaining = nbytes
        for b in blocks:
            take = min(bs, remaining)
            remaining -= take
            inflight.append(storage.submit(node, "read", b * bs, take))
            if len(inflight) >= 8:
                yield inflight.pop(0)
            if remaining <= 0:
                break
        for ev in inflight:
            yield ev

    body = read_local_images if use_local else read_striped
    env.run(env.process(body()))
    return RecoveryResult(
        kind=kind,
        process=process,
        nbytes=nbytes,
        elapsed=env.now - start,
        used_local_mirror=use_local,
    )
