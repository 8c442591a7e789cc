"""SCSI bus: the shared channel between a node and its k local disks.

The paper's 2D arrays (Fig. 3) attach k disks per node on the same SCSI
bus, which is why consecutive stripe groups *pipeline* rather than
parallelize within a node.  We model the bus as a FIFO bandwidth link
that each disk transfer must traverse in addition to the disk's own
mechanical service.
"""

from __future__ import annotations

from repro.sim.core import Environment
from repro.sim.shared import BandwidthLink
from repro.units import MB, US


class ScsiBus:
    """An Ultra-Wide-SCSI-class bus shared by one node's disks."""

    def __init__(
        self,
        env: Environment,
        rate: float = 40 * MB,
        arbitration_s: float = 20 * US,
        name: str = "",
    ):
        self.env = env
        self._link = BandwidthLink(env, rate=rate, latency=arbitration_s)
        self.name = name

    @property
    def rate(self) -> float:
        return self._link.rate

    def transfer(self, nbytes: float) -> float:
        """Occupy the bus for a ``nbytes`` transfer: a link hold, yielded
        at once (``yield bus.transfer(n)``)."""
        return self._link.hold(nbytes)

    def utilization(self) -> float:
        return self._link.utilization()
