"""Bandwidth-shared channels.

Two link models are provided:

* :class:`BandwidthLink` — FIFO serialization: one transfer at a time at
  full rate.  Matches a NIC transmit path, a SCSI bus, or a CPU work
  queue at message granularity.
* :class:`SharedChannel` — processor-sharing: concurrent transfers split
  the rate equally, with exact completion-time recomputation on every
  arrival/departure.  Matches a switch backplane or a disk serving
  interleaved streams.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.sim.core import Environment, Process
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
        if rate <= 0:
            raise ValueError("rate must be positive")
        if latency < 0:
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
        ``outstanding`` is the caller's."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if stretch < 0:
            raise ValueError("stretch must be non-negative")
        start = max(at, self._free_at)
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
        sleep = process._hold_sleep()
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

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of ``elapsed`` (default: env.now) the link was busy."""
        total = self.env.now if elapsed is None else elapsed
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_time / total)


class _Flow:
    __slots__ = ("remaining", "event")

    def __init__(self, nbytes: float, event: Event):
        self.remaining = float(nbytes)
        self.event = event


class SharedChannel:
    """Processor-sharing channel: N concurrent flows each get rate/N.

    Completion times are recomputed exactly whenever the flow set
    changes, using a background coordinator process.
    """

    def __init__(self, env: Environment, rate: float, name: str = ""):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.rate = float(rate)
        self.name = name
        self._flows: List[_Flow] = []
        self._last_update = env.now
        self._wakeup: Optional[Process] = None
        self.bytes_carried = 0.0

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, nbytes: float) -> Event:
        """Start a flow of ``nbytes``; returns its completion event."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._drain()
        done = self.env.event()
        if nbytes == 0:
            done.succeed()
            return done
        self._flows.append(_Flow(nbytes, done))
        self.bytes_carried += nbytes
        self._reschedule()
        return done

    # -- internals -------------------------------------------------------
    def _drain(self) -> None:
        """Advance all flows to the current time and complete finished ones."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        per_flow = self.rate * dt / len(self._flows)
        finished = []
        for flow in self._flows:
            flow.remaining -= per_flow
            if flow.remaining <= 1e-9:
                finished.append(flow)
        for flow in finished:
            self._flows.remove(flow)
            flow.event.succeed()

    def _reschedule(self) -> None:
        if self._wakeup is not None and self._wakeup.is_alive:
            self._wakeup.interrupt()
        if self._flows:
            self._wakeup = self.env.process(self._coordinator())

    def _coordinator(self) -> Generator:
        from repro.sim.events import Interrupt

        while self._flows:
            shortest = min(f.remaining for f in self._flows)
            dt = shortest * len(self._flows) / self.rate
            try:
                yield dt
            except Interrupt:
                # Flow set changed; a fresh coordinator has taken over.
                return
            self._drain()
