"""Network interface model: full-duplex TX and RX serialization paths."""

from __future__ import annotations

from repro.config import NetworkParams
from repro.sim.core import Environment
from repro.sim.shared import BandwidthLink


class Nic:
    """One node's network interface.

    Fast Ethernet is full duplex through a switch, so the TX and RX
    directions serialize independently.  The switch fabric adds latency;
    endpoint protocol CPU is charged by the :class:`~repro.hardware.cpu.Cpu`
    model at a higher layer.
    """

    def __init__(
        self,
        env: Environment,
        params: NetworkParams,
        node_id: int = 0,
    ):
        self.env = env
        self.params = params
        self.node_id = node_id
        self.tx = BandwidthLink(
            env, rate=params.link_rate, latency=0.0, name=f"nic{node_id}.tx"
        )
        self.rx = BandwidthLink(
            env, rate=params.link_rate, latency=0.0, name=f"nic{node_id}.rx"
        )
        #: Tracing track names: thread ``nic.tx``/``nic.rx`` of the node's
        #: process group in the exported trace (see repro.obs.export).
        self.track_tx = f"node{node_id}.nic.tx"
        self.track_rx = f"node{node_id}.nic.rx"

    def send_occupancy(self, nbytes: float) -> float:
        """Occupy the TX path for ``nbytes``: a link hold, yielded at once.

        (The RX path is reserved by the fabric directly, per fragment:
        see :meth:`repro.hardware.network.Network.send`.)
        """
        return self.tx.hold(nbytes)

    @property
    def idle(self) -> bool:
        """No transfer in flight on either direction.

        Consulted by the node fast-forward conflict predicate: a busy
        NIC means remote traffic may contend for this node's CPU before
        an analytically-priced local request would release it.
        """
        return self.tx.outstanding == 0 and self.rx.outstanding == 0

    @property
    def bytes_sent(self) -> float:
        return self.tx.bytes_carried

    @property
    def bytes_received(self) -> float:
        return self.rx.bytes_carried
