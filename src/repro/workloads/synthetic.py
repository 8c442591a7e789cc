"""Synthetic mixed workloads: random access, read/write mixes, hotspots.

Not part of the paper's evaluation, but standard for a storage library:
used by integration tests and the extension examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.units import KiB
from repro.workloads.base import ClientWorkload

if TYPE_CHECKING:
    import numpy as np


class ZipfAccessPattern:
    """Zipf-distributed block popularity over a region of the disk."""

    def __init__(
        self,
        n_blocks: int,
        theta: float = 0.99,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_blocks < 1:
            raise ValueError("need at least one block")
        if not 0 < theta:
            raise ValueError("theta must be positive")
        import numpy as np

        self.n_blocks = n_blocks
        self.theta = theta
        self._rng = rng or np.random.default_rng(0)
        ranks = np.arange(1, n_blocks + 1, dtype=float)
        weights = ranks ** (-theta)
        self._probs = weights / weights.sum()
        # Random rank->block mapping so hot blocks spread across disks.
        self._perm = self._rng.permutation(n_blocks)

    def next_block(self) -> int:
        rank = self._rng.choice(self.n_blocks, p=self._probs)
        return int(self._perm[rank])


class SyntheticWorkload(ClientWorkload):
    """Each client issues ``ops_per_client`` random block ops.

    ``read_fraction`` splits the mix; ``pattern`` may be "uniform" or
    "zipf".
    """

    name = "synthetic"

    def __init__(
        self,
        cluster,
        clients: int,
        ops_per_client: int = 64,
        op_size: int = 32 * KiB,
        read_fraction: float = 0.7,
        pattern: str = "uniform",
        zipf_theta: float = 0.99,
        region_bytes: Optional[int] = None,
    ):
        super().__init__(cluster, clients)
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.ops_per_client = ops_per_client
        self.op_size = op_size
        self.read_fraction = read_fraction
        self.pattern = pattern
        storage = cluster.storage
        region = region_bytes or min(storage.capacity, 256_000_000)
        self.n_blocks = max(1, region // storage.block_size - 1)
        self._rng = cluster.rand.stream("synthetic")
        if pattern == "zipf":
            self._zipf = ZipfAccessPattern(
                self.n_blocks, theta=zipf_theta, rng=self._rng
            )
        elif pattern == "uniform":
            self._zipf = None
        else:
            raise ValueError(f"unknown pattern {pattern!r}")
        self.reads_issued = 0
        self.writes_issued = 0

    def _next_block(self) -> int:
        if self._zipf is not None:
            return self._zipf.next_block()
        return int(self._rng.integers(0, self.n_blocks))

    def client_body(self, client: int):
        node = self.node_of_client(client)
        storage = self.cluster.storage
        bs = storage.block_size
        for _ in range(self.ops_per_client):
            block = self._next_block()
            op = (
                "read"
                if self._rng.random() < self.read_fraction
                else "write"
            )
            if op == "read":
                self.reads_issued += 1
            else:
                self.writes_issued += 1
            nbytes = min(self.op_size, bs)
            yield storage.submit(node, op, block * bs, nbytes)

    def bytes_per_client(self) -> float:
        return float(self.ops_per_client * min(self.op_size,
                                               self.cluster.storage.block_size))

    def extras(self) -> Dict[str, float]:
        return {
            "reads": float(self.reads_issued),
            "writes": float(self.writes_issued),
        }
