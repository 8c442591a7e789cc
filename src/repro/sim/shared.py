"""Bandwidth links.

:class:`BandwidthLink` — FIFO serialization: one transfer at a time at
full rate.  Matches a NIC transmit path, a SCSI bus, or a CPU work
queue at message granularity.
"""

from __future__ import annotations

from repro.sim.core import Environment
from repro.sim.events import Event


class BandwidthLink:
    """A FIFO pipe with fixed rate and per-transfer fixed latency.

    A wait (queueing + latency + nbytes/rate) is either ``yield
    link.hold(n)`` — a numeric sleep the kernel resumes inline (DESIGN
    §6.19) — or ``link.transfer(n)``, an event for a wait not yielded at
    once.  Both count in ``outstanding`` until their heap entry pops.
    """

    def __init__(
        self,
        env: Environment,
        rate: float,
        latency: float = 0.0,
        name: str = "",
    ):
        if not rate > 0:  # NaN fails every compare
            raise ValueError("rate must be positive")
        if not latency >= 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.rate = float(rate)
        self.latency = float(latency)
        self.name = name
        #: Simulated time at which the link next becomes free.
        self._free_at = env.now
        #: Transfers enqueued but not yet completed.
        self.outstanding = 0
        #: Total bytes ever carried (for utilization accounting).
        self.bytes_carried = 0.0
        self.busy_time = 0.0
        self.congestion_delay = 0.0

    def _reserve(self, nbytes: float, stretch: float, at: float) -> float:
        """Book ``nbytes`` starting no earlier than ``at``; returns the
        delay from ``at`` to completion.  The link's one copy of its
        float arithmetic (waits and fast-forward claims alike);
        ``outstanding`` is the caller's.  NaN is rejected as negative."""
        if not nbytes >= 0:
            raise ValueError("nbytes must be non-negative")
        if not stretch >= 0:
            raise ValueError("stretch must be non-negative")
        free_at = self._free_at
        start = free_at if free_at > at else at  # max(at, free_at)
        duration = nbytes / self.rate
        if stretch:
            extra = duration * stretch
            duration += extra
            self.congestion_delay += extra
        self._free_at = start + duration
        self.bytes_carried += nbytes
        self.busy_time += duration
        return start + duration + self.latency - at

    def hold(self, nbytes: float, stretch: float = 0.0) -> float:
        """Occupy the link for ``nbytes``; returns the delay the active
        process must yield at once.  The wait is the process's own
        sleep, tagged so the kernel releases ``outstanding`` when it
        pops.  ``stretch`` adds that fraction of the base duration (the
        fabric's incast model)."""
        env = self.env
        process = env._active_process
        if process is None:
            raise RuntimeError("BandwidthLink.hold() outside a process")
        sleep = process._sleep
        if sleep.link is not None:
            raise RuntimeError(
                "BandwidthLink.hold() before the previous hold was yielded"
            )
        delay = self._reserve(nbytes, stretch, env._now)
        self.outstanding += 1
        sleep.link = self
        return delay

    def transfer(self, nbytes: float, stretch: float = 0.0) -> Event:
        """Occupy the link for ``nbytes``; returns the completion event."""
        env = self.env
        ev = env.timeout(self._reserve(nbytes, stretch, env._now))
        self.outstanding += 1
        ev.callbacks.append(self._completed)
        return ev

    def _completed(self, _event: Event) -> None:
        self.outstanding -= 1
