"""Transport: message delivery with endpoint protocol-CPU charging.

A message from node A to node B costs, in order:

1. protocol CPU at A (per-message + per-KB, charged to A's CPU queue),
2. the fabric path (A's NIC TX → switch → B's NIC RX),
3. protocol CPU at B.

Loopback messages skip the fabric and charge a single memcpy instead —
the CDD's kernel-level "no cross-space system calls" fast path.
"""

from __future__ import annotations

from typing import List

from repro.cluster.message import MessageKind, MessageStats
from repro.config import ClusterConfig
from repro.hardware.network import Network
from repro.hardware.node import Node
from repro.io.context import PieceContext
from repro.obs import runtime as _obs
from repro.obs.trace import CPU_PROTO
from repro.sim.core import Environment


class Transport:
    """Message-passing substrate shared by all CDDs of a cluster."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        nodes: List[Node],
        config: ClusterConfig,
    ):
        self.env = env
        self.network = network
        self.nodes = nodes
        self.config = config
        self.stats = MessageStats()

    def message(self, kind: MessageKind, src: int, dst: int, nbytes: int,
                trace=None, ctx: PieceContext | None = None):
        """Process generator: deliver one message end to end.

        ``ctx`` carries the issuing plan op's execution context; the
        trace id is resolved from it when no explicit ``trace`` is
        given, so spans recorded on either endpoint tag themselves with
        the originating logical request.
        """
        if trace is None and ctx is not None:
            trace = ctx.trace
        self.stats.record(kind, nbytes)
        net = self.config.network
        tracer = _obs.TRACER
        if src == dst:
            # Kernel-internal hand-off: one memory copy, no protocol stack.
            t0 = self.env.now
            yield self.nodes[src].cpu.memcpy(nbytes)
            if tracer.enabled:
                tracer.record(
                    CPU_PROTO, f"node{src}.cpu", t0, self.env.now,
                    trace=trace, msg=kind.name, loopback=True,
                )
            return
        cost = net.message_cpu_cost(nbytes)
        t0 = self.env.now
        yield self.nodes[src].cpu.busy(cost)
        if tracer.enabled:
            tracer.record(
                CPU_PROTO, f"node{src}.cpu", t0, self.env.now,
                trace=trace, msg=kind.name,
            )
        yield from self.network.send(src, dst, nbytes, trace=trace)
        t1 = self.env.now
        yield self.nodes[dst].cpu.busy(cost)
        if tracer.enabled:
            tracer.record(
                CPU_PROTO, f"node{dst}.cpu", t1, self.env.now,
                trace=trace, msg=kind.name,
            )

    def send(self, kind: MessageKind, src: int, dst: int, nbytes: int,
             trace=None, ctx: PieceContext | None = None):
        """Run :meth:`message` as a background process; returns its event."""
        return self.env.process(
            self.message(kind, src, dst, nbytes, trace, ctx)
        )
