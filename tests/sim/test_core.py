"""Environment scheduling and Process semantics."""

import pytest

from repro.sim import Environment
from repro.sim.core import SimulationError


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0
    done = []

    def p(env):
        yield env.timeout(1)
        done.append(env.now)

    env.process(p(env))
    env.run()
    assert done == [11.0]


def test_run_until_time(env):
    ticks = []

    def p(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(p(env))
    env.run(until=3.5)
    assert ticks == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_past_time_rejected(env):
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_until_event_returns_value(env):
    def p(env):
        yield env.timeout(2)
        return "answer"

    proc = env.process(p(env))
    assert env.run(until=proc) == "answer"
    assert env.now == 2


def test_run_until_never_triggering_event_raises(env):
    ev = env.event()  # nothing will trigger it

    def p(env):
        yield env.timeout(1)

    env.process(p(env))
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_run_until_already_processed_event(env):
    ev = env.event()
    ev.succeed("v")
    env.run()
    assert env.run(until=ev) == "v"


def test_process_rejects_non_generator(env):
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_return_value_via_yield(env):
    def child(env):
        yield env.timeout(1)
        return 99

    got = []

    def parent(env):
        v = yield env.process(child(env))
        got.append(v)

    env.process(parent(env))
    env.run()
    assert got == [99]


def test_yield_non_event_fails_process(env):
    def bad(env):
        yield "not an event"

    proc = env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()
    assert not proc.ok
    assert isinstance(proc.value, TypeError)


def test_numeric_yield_sleeps(env):
    """``yield dt`` is the allocation-free form of env.timeout(dt)."""
    ticks = []

    def p(env):
        yield 1.5
        ticks.append(env.now)
        yield 2  # ints sleep too
        ticks.append(env.now)
        yield 0.0  # zero-delay resumes at the same time
        ticks.append(env.now)

    env.process(p(env))
    env.run()
    assert ticks == [1.5, 3.5, 3.5]


def test_negative_numeric_yield_raises_in_process(env):
    caught = []

    def p(env):
        try:
            yield -1.0
        except ValueError as e:
            caught.append(str(e))

    env.process(p(env))
    env.run()
    assert caught and "negative timeout" in caught[0]


def test_numeric_yield_interleaves_with_timeouts(env):
    order = []

    def sleeper(env, label, dt, numeric):
        for _ in range(3):
            if numeric:
                yield dt
            else:
                yield env.timeout(dt)
            order.append((label, env.now))

    env.process(sleeper(env, "n", 1.0, True))
    env.process(sleeper(env, "t", 1.0, False))
    env.run()
    # Both forms advance the clock identically, FIFO order preserved.
    assert order == [
        ("n", 1.0), ("t", 1.0),
        ("n", 2.0), ("t", 2.0),
        ("n", 3.0), ("t", 3.0),
    ]


def test_exception_propagates_to_waiter(env):
    def bad(env):
        yield env.timeout(1)
        raise KeyError("lost")

    caught = []

    def parent(env):
        try:
            yield env.process(bad(env))
        except KeyError:
            caught.append(env.now)

    env.process(parent(env))
    env.run()
    assert caught == [1]


def test_unhandled_process_exception_crashes_run(env):
    def bad(env):
        yield env.timeout(1)
        raise KeyError("lost")

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_active_process_tracking(env):
    seen = []

    def p(env):
        seen.append(env.active_process is proc)
        yield env.timeout(1)

    proc = env.process(p(env))
    env.run()
    assert seen == [True]
    assert env.active_process is None


def test_deterministic_tie_breaking(env):
    order = []

    def p(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in "abcd":
        env.process(p(env, tag))
    env.run()
    assert order == list("abcd")


def test_peek_and_len(env):
    assert env.peek() == float("inf")
    env.timeout(3)
    env.timeout(1)
    assert env.peek() == 1
    assert len(env) == 2


def test_is_alive_transitions(env):
    def p(env):
        yield env.timeout(1)

    proc = env.process(p(env))
    assert proc.is_alive
    env.run()
    assert not proc.is_alive
    assert proc.ok
