"""schedule_many / process_many / Recurring: bulk paths are order-exact.

The bulk insertion APIs trade N heap sifts for one heapify; pop order
depends only on the (time, key) totals, so results must be identical
to per-event scheduling.  Recurring is the callback-server primitive
behind the disk fast-forward: firings advance the clock exactly like a
chain of numeric sleeps, on both the inlined run loop and the generic
step() path.
"""

import pytest

from repro.sim.core import Environment, Process, Recurring
from repro.sim.events import _URGENT


def test_schedule_many_matches_individual_schedules():
    def run(bulk):
        env = Environment()
        order = []
        events = []
        for i in range(50):
            ev = env.event()
            ev.callbacks.append(lambda e, i=i: order.append(i))
            ev._ok = True
            ev._value = None
            events.append(ev)
        if bulk:
            env.schedule_many(events, delay=1.0)
        else:
            for ev in events:
                env.schedule(ev, delay=1.0)
        env.run()
        return order

    assert run(bulk=True) == run(bulk=False) == list(range(50))


def test_schedule_many_small_batch_uses_push_path():
    env = Environment()
    # Pre-load a big queue so one small batch takes the per-push arm.
    for _ in range(512):
        env.timeout(5.0)
    seen = []
    ev = env.event()
    ev.callbacks.append(lambda e: seen.append(env.now))
    ev._ok = True
    ev._value = None
    assert env.schedule_many([ev], delay=1.0) == 1
    env.run(until=2.0)
    assert seen == [1.0]


def test_schedule_many_empty_batch():
    env = Environment()
    assert env.schedule_many([]) == 0
    assert len(env) == 0


def test_schedule_many_urgent_priority_sorts_first():
    env = Environment()
    order = []

    def tag(label):
        ev = env.event()
        ev.callbacks.append(lambda e: order.append(label))
        ev._ok = True
        ev._value = None
        return ev

    env.schedule(tag("normal"))
    env.schedule_many([tag("urgent1"), tag("urgent2")], priority=_URGENT)
    env.run()
    assert order == ["urgent1", "urgent2", "normal"]


def test_process_many_matches_individual_processes():
    def run(bulk):
        env = Environment()
        order = []

        def worker(i):
            order.append(("start", i, env.now))
            yield 0.5 * (i + 1)
            order.append(("done", i, env.now))

        gens = [worker(i) for i in range(20)]
        if bulk:
            procs = env.process_many(gens)
        else:
            procs = [env.process(g) for g in gens]
        env.run()
        assert all(p.processed for p in procs)
        return order

    assert run(bulk=True) == run(bulk=False)


def test_process_many_results_waitable():
    env = Environment()

    def worker(i):
        yield float(i)
        return i * 10

    def collector():
        procs = env.process_many(worker(i) for i in range(5))
        got = yield env.all_of(procs)
        return [got[p] for p in procs]

    assert env.run(env.process(collector())) == [0, 10, 20, 30, 40]


def test_process_many_empty():
    env = Environment()
    assert env.process_many([]) == []


def test_process_many_rejects_non_generators():
    env = Environment()
    with pytest.raises(TypeError):
        env.process_many([42])


def test_defer_init_keyword_only():
    env = Environment()

    def g():
        yield 1.0

    p = Process(env, g(), defer_init=True)
    assert len(env) == 0  # nothing queued until schedule_many
    env.schedule_many([p._sleep], priority=_URGENT)
    env.run()
    assert p.processed


def test_recurring_fires_and_rearms():
    env = Environment()
    fired = []

    def fire(now):
        fired.append(now)
        return now + 2.0 if len(fired) < 3 else None

    env.schedule(Recurring(env, fire), delay=1.0)
    env.run()
    assert fired == [1.0, 3.0, 5.0]


def test_recurring_interleaves_with_processes():
    env = Environment()
    log = []

    def fire(now):
        log.append(("r", now))
        return now + 1.0 if now < 3.0 else None

    def proc():
        for _ in range(3):
            yield 1.0
            log.append(("p", env.now))

    # Marker armed before the process at each shared instant, so its
    # earlier sequence key fires first.
    env.schedule(Recurring(env, fire), delay=1.0)
    env.process(proc())
    env.run()
    assert log == [
        ("r", 1.0), ("p", 1.0),
        ("r", 2.0), ("p", 2.0),
        ("r", 3.0), ("p", 3.0),
    ]


def test_recurring_step_path_matches_run_loop():
    def drive(use_step):
        env = Environment()
        fired = []

        def fire(now):
            fired.append(now)
            return now + 1.5 if len(fired) < 4 else None

        env.schedule(Recurring(env, fire), delay=0.5)
        if use_step:
            from repro.sim.core import EmptySchedule

            while True:
                try:
                    env.step()
                except EmptySchedule:
                    break
        else:
            env.run()
        return fired

    assert drive(True) == drive(False) == [0.5, 2.0, 3.5, 5.0]


def test_recurring_can_be_rearmed_after_stopping():
    env = Environment()
    fired = []

    def fire(now):
        fired.append(now)
        return None  # stop immediately each time

    marker = Recurring(env, fire)
    env.schedule(marker, delay=1.0)
    env.run()
    env.schedule(marker, delay=1.0)
    env.run()
    assert fired == [1.0, 2.0]
