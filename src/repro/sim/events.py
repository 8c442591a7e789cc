"""Event primitives for the simulation kernel.

Events move through three states: *pending* (created but not scheduled),
*triggered* (scheduled on the environment's queue with a value), and
*processed* (callbacks have run).  Failures propagate exceptions into the
waiting process at its ``yield`` point.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.core import Environment


#: Sentinel distinguishing "not yet triggered" from a ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Callbacks registered before the event is processed run exactly once,
    in registration order, when the environment pops the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with this event when it is processed; set to
        #: ``None`` afterwards, which marks the event as processed.
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env._now, next(env._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env._now, next(env._seq), self))
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another event's outcome into this one (callback form)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defused()
            self.fail(event._value)

    def defused(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Flat initialization + inline push: this constructor runs once
        # per simulated service interval, so it skips the Event.__init__
        # and Environment.schedule frames.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(env._queue, (env._now + delay, next(env._seq), self))


class ConditionValue:
    """Ordered mapping of the events a condition collected, with values."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class AllOf(Event):
    """Triggers when every constituent event has triggered.

    Succeeds with a :class:`ConditionValue` of the events' values (at
    once for an empty list); fails with the first member failure.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._events = evs = list(events)
        self._count = 0

        for event in evs:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        if not evs:
            self.succeed(ConditionValue())
            return

        # One bound method shared by every member's callbacks list.
        check = self._check
        for event in evs:
            callbacks = event.callbacks
            if callbacks is None:  # already processed
                check(event)
            else:
                callbacks.append(check)

    def _collect_values(self) -> ConditionValue:
        value = ConditionValue()
        for event in self._events:
            # Only *processed* events count: a Timeout is born triggered
            # (value pre-set) but has not occurred until it is processed.
            if event.callbacks is None and event._ok:
                value.events.append(event)
        return value

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            if not event._ok:
                # The condition has already fired; swallow stragglers'
                # failures so they do not crash the run unhandled.
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._count == len(self._events):
            self.succeed(self._collect_values())


#: Scheduling priorities: urgent events (process starts) run
#: before normal events scheduled at the same simulated time.  In heap
#: entries ``(time, key, event)`` the priority is fused into the
#: sequence key: normal events use the bare sequence number, urgent
#: events subtract ``_KEY_OFFSET`` so they sort first at equal times
#: while staying FIFO among themselves.
_URGENT = 0
_NORMAL = 1
_KEY_OFFSET = 1 << 62
