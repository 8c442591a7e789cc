"""Switched-Ethernet fabric connecting the cluster nodes.

Message path (store-and-forward at message granularity — callers keep
messages at block size, so this is within one MTU of cut-through):

1. occupy the sender's NIC TX for ``nbytes``,
2. cross the switch (fixed latency),
3. occupy the receiver's NIC RX for ``nbytes``.

Endpoint protocol CPU is charged by the transport layer
(:mod:`repro.cluster.transport`) so that it contends with the node's
other storage-path work.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import NetworkParams
from repro.errors import ConfigurationError
from repro.hardware.nic import Nic
from repro.obs import runtime as _obs
from repro.obs.trace import NET_RX, NET_TX
from repro.sim.core import Environment


class Network:
    """The cluster fabric: one NIC per node plus the switch."""

    def __init__(
        self,
        env: Environment,
        n_nodes: int,
        params: Optional[NetworkParams] = None,
    ):
        if n_nodes < 1:
            raise ConfigurationError("network needs at least one node")
        self.env = env
        self.params = params or NetworkParams()
        self.nics: List[Nic] = [
            Nic(env, self.params, node_id=i) for i in range(n_nodes)
        ]
        #: Total bytes that crossed the switch.
        self.bytes_switched = 0.0
        self.messages = 0
        #: Per-destination {source: in-flight message count} (incast).
        self._flows_seen: List[dict] = [{} for _ in range(n_nodes)]
        self.incast_stretch_total = 0.0

    @property
    def n_nodes(self) -> int:
        return len(self.nics)

    def send(self, src: int, dst: int, nbytes: float, trace=None):
        """Process generator: move ``nbytes`` from node src to node dst.

        Messages larger than the MTU are fragmented and *pipelined*:
        each fragment's RX reservation is made as soon as its TX
        completes, so fragment k+1 transmits while fragment k is
        received — and fragments of other messages can interleave at the
        receive port.  Completes when the last byte lands.  Loopback
        (src == dst) is free at this layer — memory copies are charged
        by the transport.  ``trace`` tags the recorded NIC tx/rx spans.
        """
        nics = self.nics
        n = len(nics)
        if not (0 <= src < n and 0 <= dst < n):
            raise ConfigurationError(
                f"bad endpoints {src}->{dst} on {n} nodes"
            )
        # Checked before anything is counted: a rejected send moves
        # nothing.  NaN fails this compare too.
        if not nbytes >= 0:
            raise ValueError("nbytes must be non-negative")
        self.messages += 1
        if src == dst:
            return
            yield  # pragma: no cover - makes this a generator
        self.bytes_switched += nbytes
        params = self.params
        mtu = params.mtu_bytes
        tracer = _obs.TRACER
        env = self.env
        tx_start = env._now
        tx_end = tx_start
        rx_start = None
        tx = nics[src].tx
        rx = nics[dst].rx
        self._flow_enter(src, dst)
        try:
            pos = 0
            first = True
            while True:
                frag = nbytes - pos
                if frag >= mtu:  # min(mtu, nbytes - pos)
                    frag = mtu
                yield tx.hold(frag)
                tx_end = env._now
                if first:
                    # Switch forwarding latency, paid once up front;
                    # later fragments ride the full pipeline.
                    yield params.switch_latency_s
                    first = False
                # RX occupancy; ``stretch`` is the incast slowdown
                # (fraction of base time) at the receive port.
                stretch = self._incast_stretch(src, dst)
                if rx_start is None:
                    rx_start = env._now
                pos += frag
                if pos >= nbytes:
                    # The last byte lands with the final fragment.
                    yield rx.hold(frag, stretch=stretch)
                    break
                # Earlier fragments are received while the next one
                # transmits: reserve RX without waiting on it.
                rx.transfer(frag, stretch=stretch)
            if tracer.enabled:
                tracer.record(
                    NET_TX,
                    nics[src].track_tx,
                    tx_start,
                    tx_end,
                    trace=trace,
                    nbytes=nbytes,
                    dst=dst,
                )
                tracer.record(
                    NET_RX,
                    nics[dst].track_rx,
                    rx_start if rx_start is not None else env._now,
                    env._now,
                    trace=trace,
                    nbytes=nbytes,
                    src=src,
                )
        finally:
            self._flow_exit(src, dst)

    # -- incast model ----------------------------------------------------
    def _flow_enter(self, src: int, dst: int) -> None:
        flows = self._flows_seen[dst]
        flows[src] = flows.get(src, 0) + 1

    def _flow_exit(self, src: int, dst: int) -> None:
        flows = self._flows_seen[dst]
        flows[src] -= 1
        if flows[src] <= 0:
            del flows[src]

    def _incast_stretch(self, src: int, dst: int) -> float:
        """Incast slowdown at the receive port (see NetworkParams).

        Counts the distinct senders with a message currently in flight
        toward ``dst``; each flow beyond the threshold stretches RX
        service — the fan-in goodput collapse of era TCP on Fast
        Ethernet.  Counting *in-flight* flows (not a time window) keeps
        the model free of slow-down→more-flows feedback.
        """
        p = self.params
        if p.incast_flow_threshold is None:
            return 0.0
        excess = len(self._flows_seen[dst]) - p.incast_flow_threshold
        if excess <= 0:
            return 0.0
        stretch = min(p.incast_penalty * excess, p.incast_max_stretch)
        self.incast_stretch_total += stretch
        return stretch

    def transfer(self, src: int, dst: int, nbytes: float, trace=None):
        """Convenience: run :meth:`send` as a process; returns its event."""
        return self.env.process(self.send(src, dst, nbytes, trace=trace))
