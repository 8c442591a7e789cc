"""CPU cost model for storage-path software work.

A node's storage work (driver entry, protocol processing, parity XOR,
memory copies) contends for a single CPU resource — the Pentium II/400
of a Trojans node.  Costs are charged through a FIFO bandwidth-style
link so that concurrent storage activity on one node serializes
realistically.
"""

from __future__ import annotations

from repro.config import CpuParams
from repro.sim.core import Environment
from repro.sim.shared import BandwidthLink


class Cpu:
    """One node's CPU as a serial work queue.

    ``busy(seconds)`` returns the delay until the CPU has spent that
    much *serial* time — queued work from other processes delays it — as
    a link hold the calling process yields at once (``yield
    cpu.busy(s)``); the charging helpers below share that contract.
    """

    def __init__(self, env: Environment, params: CpuParams, node_id: int = 0):
        self.env = env
        self.params = params
        self.node_id = node_id
        # rate=1.0: "bytes" are seconds of CPU work.
        self._work = BandwidthLink(env, rate=1.0, name=f"cpu{node_id}")

    def busy(self, seconds: float) -> float:
        """Charge ``seconds`` of CPU time (FIFO with other charges)."""
        if seconds < 0:
            raise ValueError("negative CPU time")
        return self._work.hold(seconds)

    def xor(self, nbytes: float, passes: int = 1) -> float:
        """Charge the cost of ``passes`` XOR passes over ``nbytes``."""
        return self.busy(passes * self.params.xor_time(nbytes))

    def memcpy(self, nbytes: float) -> float:
        """Charge one memory copy of ``nbytes``."""
        return self.busy(nbytes / self.params.memcpy_rate)

    def driver_entry(self, kernel_level: bool = True) -> float:
        """Charge a storage-driver entry (kernel CDD vs user-level RPC)."""
        p = self.params
        cost = (
            p.kernel_request_overhead_s
            if kernel_level
            else p.user_level_request_overhead_s
        )
        return self.busy(cost)

    def utilization(self) -> float:
        return self._work.utilization()
