"""Failure injection: schedule disk failures/repairs during a workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import DegradedModeError


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled fault action."""

    at: float
    disk: int
    action: str = "fail"  # "fail" | "repair"

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError("negative event time")
        if self.action not in ("fail", "repair"):
            raise ValueError(f"bad action {self.action!r}")


@dataclass
class InjectionLog:
    """What the injector actually did."""

    applied: List[FailureEvent] = field(default_factory=list)
    data_loss_at: Optional[float] = None


class FaultInjector:
    """Applies a failure schedule to a cluster's storage system.

    Usage::

        inj = FaultInjector(cluster, [FailureEvent(0.5, disk=3)])
        inj.start()
        ... run workload ...
        assert inj.log.data_loss_at is None
    """

    def __init__(self, cluster, schedule: List[FailureEvent]):
        for ev in schedule:
            ev.validate()
            if not 0 <= ev.disk < cluster.n_disks:
                raise ValueError(f"disk {ev.disk} outside the array")
        self.cluster = cluster
        self.schedule = sorted(schedule, key=lambda e: e.at)
        self.log = InjectionLog()
        self._proc = None
        # Failures may land while a fast-forwarded request window is in
        # flight, which the closed form would surface at the wrong
        # instant; keep the whole chaos run on the event-driven path.
        storage = cluster.storage
        if schedule and storage is not None and hasattr(storage, "node_ff"):
            storage.node_ff = False

    def start(self) -> None:
        """Arm the injector (idempotent)."""
        if self._proc is None:
            self._proc = self.cluster.env.process(self._run())

    def _run(self):
        env = self.cluster.env
        storage = self.cluster.storage
        for ev in self.schedule:
            delay = ev.at - env.now
            if delay > 0:
                yield float(delay)
            if ev.action == "fail":
                try:
                    storage.fail_disk(ev.disk)
                except DegradedModeError:
                    # Non-redundant back-end: the failure is applied and
                    # the typed report becomes a data-loss timestamp.
                    if self.log.data_loss_at is None:
                        self.log.data_loss_at = env.now
            else:
                storage.repair_disk(ev.disk)
            self.log.applied.append(ev)
            layout = getattr(storage, "layout", None)
            if (
                layout is not None
                and storage.failed_disks
                and not layout.tolerates(storage.failed_disks)
                and self.log.data_loss_at is None
            ):
                self.log.data_loss_at = env.now
