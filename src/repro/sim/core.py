"""Environment and Process: the heart of the simulation kernel.

The :class:`Environment` owns simulated time and the event heap.  A
:class:`Process` wraps a generator; every value the generator yields must
be an :class:`~repro.sim.events.Event`, and the process resumes when that
event is processed, receiving the event's value at the ``yield``.

Hot path
--------
Every simulated disk seek, network hop, and CPU slice is one trip
through ``run``'s event loop, so this module is written for throughput
(see ``benchmarks/bench_kernel.py``):

* ``run`` inlines the event loop instead of calling :meth:`step` per
  event, with the heap and ``heappop`` bound to locals;
* a process may ``yield dt`` (a plain float/int) instead of
  ``yield env.timeout(dt)``: the sleep reuses one :class:`_Sleep`
  event per process, and the run loop resumes it *inline* — no
  callback dispatch, no ``_resume`` frame — re-arming the same event
  with ``heappushpop`` (one heap sift per sleep instead of two);
* a process starts through that same sleep event: armed urgent at
  spawn, it is the process's *Initialize* pop, resumed inline — a
  spawn allocates one kernel event, and the first ``yield dt`` re-arms
  it;
* bandwidth-link waits (every CPU, SCSI and NIC hop) are such sleeps:
  ``yield link.hold(n)`` tags the process's ``_Sleep`` with the link,
  and the inline resume releases the link's ``outstanding`` count
  before driving the generator (DESIGN §6.19);
* :meth:`Environment.timeout` recycles processed ``Timeout`` objects
  from a free list — the run loop returns a ``Timeout`` to the pool
  only when ``sys.getrefcount`` proves nothing else references it, so
  pooling is invisible to code that keeps a handle to the event;
* ``Process`` caches its own bound ``_resume`` (as ``_wake``) so
  parking at a yield costs no bound-method allocation;
* the scheduling entries are plain ``(time, key, event)`` tuples,
  pushed inline where profiling showed the extra frame of
  :meth:`schedule` dominating (``Timeout``, ``succeed``, ``_finish``);
  the key fuses priority and FIFO sequence into one int so heap
  comparisons at equal times touch a single element;
* :meth:`Environment.schedule_many` bulk-inserts a batch of events —
  sequence keys are allocated in iteration order, then the whole batch
  lands with one ``heapify`` when that beats per-event sifts.  Pop
  order depends only on the (unique) ``(time, key)`` totals, never on
  the heap's internal layout, so bulk insertion is timing-invisible;
* a :class:`Recurring` event drives callback-based server loops: the
  run loop calls its ``fn(now)`` directly and re-arms it at the
  returned time with ``heappushpop`` — the device-model analog of the
  ``_Sleep`` fast path, with no generator frame at all (see the
  analytic fast-forward in :mod:`repro.hardware.disk`).

Behaviour (event ordering, error propagation) is identical to the
straightforward implementation; the property tests in ``tests/sim``
pin it.
"""

from __future__ import annotations

from heapq import heapify, heappush, heappop, heappushpop
from itertools import count
from sys import getrefcount
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.events import (
    _KEY_OFFSET,
    _NORMAL,
    _PENDING,
    _URGENT,
    AllOf,
    Event,
    Timeout,
)

#: Upper bound on the Timeout free list (plenty for any workload's
#: concurrent-process count while keeping idle memory bounded).
_TIMEOUT_POOL_MAX = 512


class SimulationError(Exception):
    """An unrecoverable error inside the simulation kernel."""


class EmptySchedule(Exception):
    """Internal: the event queue has drained."""


class _Sleep(Event):
    """Internal: a process's reusable numeric-sleep event.

    The run loop recognises this type and resumes ``process`` directly —
    no callback dispatch, no ``_resume`` frame.  The ``callbacks`` list
    still holds the process's wakeup so :meth:`Environment.step` (the
    generic path) processes it identically.

    ``link`` is the ``BandwidthLink`` a hold tagged this sleep with (or
    ``None``); both dispatch paths release its ``outstanding`` when the
    entry pops, before resuming (DESIGN §6.19).

    Built with its process, born triggered (value ``None``): queued
    urgent at spawn, its first pop starts the generator (the process's
    *Initialize* pop); every later numeric yield or link hold re-arms
    it.
    """

    __slots__ = ("process", "generator", "link")
    process: "Process"
    generator: Generator
    link: Any  # Optional[BandwidthLink] (repro.sim.shared imports core)

    def __init__(self, process: "Process"):
        self.env = process.env
        self.callbacks = [process._wake]
        self._value = None
        self._ok = True
        self._defused = False
        self.process = process
        self.generator = process._generator
        self.link = None


class Recurring(Event):
    """A self-rescheduling event driving a callback-based server loop.

    Each time the event is popped the kernel calls ``fn(now)``; the
    callback performs one service step and returns the *absolute* time
    of its next firing, or ``None`` to stop.  The run loop dispatches a
    ``Recurring`` inline and re-arms it with ``heappushpop`` — the
    device-model analog of the ``_Sleep`` fast path, with no generator
    frame behind it.  A stopped ``Recurring`` is re-armed by its owner
    with :meth:`Environment.schedule`; it is never *processed* in the
    :class:`~repro.sim.events.Event` sense, so it cannot be waited on.

    ``callbacks`` holds a fallback that mirrors the inline dispatch so
    the generic :meth:`Environment.step` path behaves identically.
    """

    __slots__ = ("fn",)

    def __init__(
        self,
        env: "Environment",
        fn: Callable[[float], Optional[float]],
    ):
        self.env = env
        self.callbacks = [self._step_fire]
        self._value = None
        self._ok = True
        self._defused = False
        self.fn = fn

    def _step_fire(self, _event: Event) -> None:
        # Generic-path fallback (Environment.step): fire, then restore
        # the callbacks list step() cleared so the event stays armable.
        env = self.env
        nxt = self.fn(env._now)
        self.callbacks = [self._step_fire]
        if nxt is not None:
            heappush(env._queue, (nxt, next(env._seq), self))


class Environment:
    """A simulation environment: clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds by convention).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_active_process",
        "_timeout_pool",
        "processed_events",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []  # heap of (time, priority, seq, event)
        self._seq = count()
        self._active_process: Optional[Process] = None
        self._timeout_pool: list = []
        #: Heap entries dispatched so far, across all :meth:`run`/:meth:`step`
        #: calls — the denominator for events/sec throughput reporting.
        self.processed_events = 0

    # -- clock & introspection -----------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional["Process"]:
        """The process currently executing, if any."""
        return self._active_process

    def __len__(self) -> int:
        return len(self._queue)

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` time units from now."""
        pool = self._timeout_pool
        if pool:
            if not delay >= 0:  # NaN fails this compare too
                raise ValueError(f"negative timeout delay {delay!r}")
            t = pool.pop()
            t.delay = delay
            t._value = value
            t._ok = True
            t._defused = False
            heappush(self._queue, (self._now + delay, next(self._seq), t))
            return t
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> "Process":
        """Start ``generator`` as a new simulation process."""
        return Process(self, generator)

    def process_many(
        self, generators: Iterable[Generator]
    ) -> List["Process"]:
        """Bulk-start processes with one batched heap insertion.

        Equivalent to ``[self.process(g) for g in generators]`` — the
        deferred start events receive the same urgent keys in the same
        order — but a large batch lands through
        :meth:`schedule_many`'s single ``heapify`` instead of one heap
        sift per process.
        """
        procs: List[Process] = []
        inits: List[Event] = []
        for g in generators:
            p = Process(self, g, defer_init=True)
            procs.append(p)
            inits.append(p._sleep)
        self.schedule_many(inits, priority=_URGENT)
        return procs

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all ``events`` have triggered."""
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------
    def schedule(
        self, event: Event, priority: int = _NORMAL, delay: float = 0.0
    ) -> None:
        """Queue ``event`` for processing ``delay`` time units from now."""
        if not delay >= 0:  # NaN fails this compare too
            raise ValueError(f"negative delay {delay!r}")
        key = next(self._seq)
        if priority != _NORMAL:
            key -= _KEY_OFFSET
        heappush(self._queue, (self._now + delay, key, event))

    def schedule_many(
        self,
        events: Iterable[Event],
        priority: int = _NORMAL,
        delay: float = 0.0,
    ) -> int:
        """Bulk-queue ``events`` for processing ``delay`` from now.

        Sequence keys are allocated in iteration order, so the batch
        is processed exactly as N individual :meth:`schedule` calls
        would be.  When the batch rivals the queue in size the entries
        are appended and the heap rebuilt with one ``heapify``
        (O(H+n)) instead of n sifts (O(n·log H)); pop order depends
        only on the unique ``(time, key)`` totals, never on the heap's
        internal layout, so the strategy choice is timing-invisible.

        Returns the number of events queued.
        """
        if not delay >= 0:  # NaN fails this compare too
            raise ValueError(f"negative delay {delay!r}")
        seq = self._seq
        at = self._now + delay
        if priority != _NORMAL:
            entries = [(at, next(seq) - _KEY_OFFSET, e) for e in events]
        else:
            entries = [(at, next(seq), e) for e in events]
        n = len(entries)
        if not n:
            return 0
        queue = self._queue
        total = len(queue) + n
        # n sifts cost ~n·log2(total); a rebuild costs ~2·total.
        if n * max(1, total.bit_length()) < 2 * total:
            for entry in entries:
                heappush(queue, entry)
        else:
            queue.extend(entries)
            heapify(queue)
        return n

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event (advancing the clock)."""
        try:
            self._now, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.processed_events += 1
        if event.__class__ is _Sleep and event.link is not None:
            event.link.outstanding -= 1
            event.link = None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            raise SimulationError(
                f"unhandled failure of {event!r}: {exc!r}"
            ) from exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time), or an :class:`Event` (run until
        it is processed, returning its value).
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:  # already processed
                    return stop._value
            else:
                at = float(until)
                if not at >= self._now:  # NaN fails this compare too
                    raise ValueError(
                        f"until={at} is not at or after now={self._now}"
                    )
                stop = Event(self)
                # Trigger just before any event at exactly `at` runs.
                stop._ok = True
                stop._value = None
                heappush(
                    self._queue, (at, next(self._seq) - _KEY_OFFSET, stop)
                )
            stop.callbacks.append(_stop_callback)

        # Inlined event loop (see module docstring): equivalent to
        # ``while True: self.step()`` minus a method call per event,
        # plus the Timeout free-list recycling and the _Sleep resume
        # path, which drives a sleeping process's generator directly —
        # no callback dispatch, no _resume frame, no event churn.
        queue = self._queue
        pool = self._timeout_pool
        next_seq = self._seq.__next__
        pop = heappop
        pushpop = heappushpop
        sleep_cls = _Sleep
        recurring_cls = Recurring
        timeout_cls = Timeout
        refcount = getrefcount
        _float, _int = float, int
        n_dispatched = 0
        try:
            while True:
                try:
                    now, _, event = pop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                self._now = now
                n_dispatched += 1

                # Inner loop: process `event`; a sleeping process that
                # goes straight back to sleep re-arms its event with
                # heappushpop, fusing the push with the next pop into a
                # single sift and feeding the popped event back here.
                while True:
                    if event.__class__ is sleep_cls:
                        # NOTE: the sleep's callbacks list is left in
                        # place across inline resumes — only the
                        # generic step() path reads it.  A _Sleep
                        # therefore never reports ``processed``.
                        link = event.link
                        if link is not None:  # a link hold ends
                            link.outstanding -= 1
                            event.link = None
                        process = event.process
                        self._active_process = process
                        try:
                            nxt = event.generator.send(None)
                        except StopIteration as exc:
                            process._finish(exc.value)
                            self._active_process = None
                            break
                        except BaseException as exc:
                            process._fail_out(exc)
                            self._active_process = None
                            break
                        cls = nxt.__class__
                        if (cls is _float or cls is _int) and nxt >= 0:
                            # Sleep-to-sleep: re-arm the same event.
                            self._active_process = None
                            now, _, event = pushpop(
                                queue, (now + nxt, next_seq(), event)
                            )
                            self._now = now
                            n_dispatched += 1
                            continue
                        process._park(nxt)
                        self._active_process = None
                        break

                    if event.__class__ is recurring_cls:
                        # Callback-based server step: fire and re-arm
                        # at the returned time (heappushpop fuses the
                        # re-arm push with the next pop).  Like _Sleep,
                        # a Recurring's callbacks stay in place — only
                        # the generic step() fallback uses them.
                        nxt = event.fn(now)
                        if nxt is None:
                            break
                        now, _, event = pushpop(
                            queue, (nxt, next_seq(), event)
                        )
                        self._now = now
                        n_dispatched += 1
                        continue

                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks is None:  # pragma: no cover - defensive
                        break
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)

                    if not event._ok and not event._defused:
                        exc = event._value
                        raise SimulationError(
                            f"unhandled failure of {event!r}: {exc!r}"
                        ) from exc

                    # Recycle the Timeout when provably unreferenced:
                    # the only two references are the loop variable and
                    # getrefcount's argument.  Any process/condition/
                    # user variable still holding the event raises the
                    # count.
                    if (
                        event.__class__ is timeout_cls
                        and refcount(event) == 2
                        and len(pool) < _TIMEOUT_POOL_MAX
                    ):
                        callbacks.clear()
                        event.callbacks = callbacks
                        pool.append(event)
                    break
        except _StopSimulation as exc:
            return exc.value
        except EmptySchedule:
            if stop is not None and not stop.triggered:
                if isinstance(until, Event):
                    raise SimulationError(
                        "run(until=event): queue drained before the event "
                        "triggered"
                    ) from None
            return None
        finally:
            self.processed_events += n_dispatched


class _StopSimulation(Exception):
    """Internal: raised by the stop-event callback to end :meth:`run`."""

    def __init__(self, value: Any):
        super().__init__(value)
        self.value = value


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise _StopSimulation(event._value)
    # The awaited event failed: surface its exception out of run().
    event.defused()
    raise event._value


class Process(Event):
    """A running simulation process.

    A process is itself an event: it triggers when the generator returns,
    with the generator's return value, so processes can wait on each
    other simply by yielding them.
    """

    __slots__ = ("_generator", "_wake", "_sleep")

    def __init__(
        self,
        env: Environment,
        generator: Generator,
        *,
        defer_init: bool = False,
    ):
        # A native generator passes on its type alone; anything else
        # must at least quack like one.
        if generator.__class__ is not GeneratorType and not (
            hasattr(generator, "send") and hasattr(generator, "throw")
        ):
            raise TypeError(f"{generator!r} is not a generator")
        # Flat Event initialization: one process per spawned piece, so
        # the Event.__init__ frame is skipped.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        # Bind _resume once: every wakeup list this process joins (its
        # sleep event, each event it parks on) holds this one bound
        # method instead of allocating a new one.
        self._wake = self._resume
        # The reusable sleep event doubles as the start event: queued
        # urgent now, it is the Initialize pop.  defer_init leaves it
        # unqueued; the caller (Environment.process_many) bulk-queues
        # it.
        sleep = _Sleep(self)
        self._sleep: _Sleep = sleep
        if not defer_init:
            heappush(
                env._queue, (env._now, next(env._seq) - _KEY_OFFSET, sleep)
            )

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        generator = self._generator
        try:
            while True:
                try:
                    if event._ok:
                        next_event = generator.send(event._value)
                    else:
                        # The awaited event failed: deliver its exception.
                        event._defused = True
                        next_event = generator.throw(event._value)
                except StopIteration as exc:
                    self._finish(exc.value)
                    break
                except BaseException as exc:
                    # The generator itself raised (or re-raised): the
                    # process fails with that exception as its outcome.
                    self._fail_out(exc)
                    break

                cls = next_event.__class__
                if cls is float or cls is int:
                    # Numeric yield: ``yield dt`` sleeps ``dt`` exactly
                    # like ``yield env.timeout(dt)`` but reuses one
                    # per-process sleep event instead of allocating a
                    # Timeout + callbacks list + bound method per wait.
                    if next_event >= 0:
                        # Free for reuse: only the event a process
                        # waits on resumes it, so its sleep is off the
                        # heap.
                        sleep = self._sleep
                        if sleep.callbacks is None:
                            # step() processed it: restore the wakeup.
                            sleep.callbacks = [self._wake]
                        heappush(
                            env._queue,
                            (env._now + next_event, next(env._seq), sleep),
                        )
                        break
                    # Negative delay: surface the same ValueError a
                    # Timeout would raise, at the yield point.
                    err = Event(env)
                    err._ok = False
                    err._value = ValueError(
                        f"negative timeout delay {next_event!r}"
                    )
                    event = err
                    continue

                try:
                    callbacks = next_event.callbacks
                except AttributeError:
                    self._fail_out(
                        TypeError(
                            f"process yielded a non-event: {next_event!r}"
                        )
                    )
                    break

                if callbacks is not None:
                    # Pending or triggered-but-unprocessed: park here.
                    callbacks.append(self._wake)
                    break
                # Already processed: loop and deliver immediately.
                event = next_event
        finally:
            env._active_process = None

    def _park(self, next_event: Any) -> None:
        """Handle a yielded value after an inline sleep resume.

        The run loop drives numeric-to-numeric sleeps itself; anything
        else the generator yields after a sleep lands here.  A pending
        event parks directly; an already-processed event, a negative
        delay, or a non-event takes the matching arm of :meth:`_resume`.
        """
        cls = next_event.__class__
        if cls is float or cls is int:  # negative: the run loop took >= 0
            err = Event(self.env)
            err._ok = False
            err._value = ValueError(f"negative timeout delay {next_event!r}")
            self._resume(err)
            return
        try:
            callbacks = next_event.callbacks
        except AttributeError:
            self._fail_out(
                TypeError(f"process yielded a non-event: {next_event!r}")
            )
            return
        if callbacks is not None:
            callbacks.append(self._wake)
        else:
            self._resume(next_event)  # already processed: deliver now

    def _finish(self, value: Any) -> None:
        # Drop the self-references (the bound ``_wake``, and the sleep
        # whose ``process`` points back here) so reference counting
        # frees a finished process instead of the cyclic collector.
        self._wake = self._sleep = None
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env._now, next(env._seq), self))

    def _fail_out(self, exc: BaseException) -> None:
        self._wake = self._sleep = None
        tb = exc.__traceback__
        if tb is not None:
            # Start the traceback at the generator: the kernel frame that
            # caught ``exc`` holds this process, which holds ``exc``.
            exc.__traceback__ = tb.tb_next
        self._ok = False
        self._value = exc
        env = self.env
        heappush(env._queue, (env._now, next(env._seq), self))
