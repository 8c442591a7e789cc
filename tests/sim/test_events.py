"""Event lifecycle, composition, and failure semantics."""

import pytest

from repro.sim import AllOf, Environment, Event
from repro.sim.events import ConditionValue


def test_event_starts_pending(env):
    ev = env.event()
    assert not ev.triggered
    assert not ev.processed
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_succeed_carries_value(env):
    ev = env.event()
    ev.succeed(42)
    assert ev.triggered and ev.ok and ev.value == 42


def test_double_trigger_rejected(env):
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_fail_requires_exception_instance(env):
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_unhandled_failure_crashes_run(env):
    ev = env.event()
    ev.fail(ValueError("boom"))
    from repro.sim.core import SimulationError

    with pytest.raises(SimulationError):
        env.run()


def test_defused_failure_is_silent(env):
    ev = env.event()
    ev.fail(ValueError("boom"))
    ev.defused()
    env.run()  # no raise


def test_timeout_negative_delay_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_fires_at_delay(env):
    seen = []

    def p(env):
        yield env.timeout(2.5, value="hi")
        seen.append(env.now)

    env.process(p(env))
    env.run()
    assert seen == [2.5]


def test_timeout_value_delivered(env):
    got = []

    def p(env):
        v = yield env.timeout(1, value="payload")
        got.append(v)

    env.process(p(env))
    env.run()
    assert got == ["payload"]


def test_all_of_waits_for_every_event(env):
    order = []

    def p(env):
        t1, t2 = env.timeout(1), env.timeout(3)
        yield env.all_of([t1, t2])
        order.append(env.now)

    env.process(p(env))
    env.run()
    assert order == [3]


def test_all_of_empty_triggers_immediately(env):
    done = []

    def p(env):
        v = yield env.all_of([])
        done.append(v)

    env.process(p(env))
    env.run()
    assert len(done) == 1 and isinstance(done[0], ConditionValue)


def test_condition_value_collects_events(env):
    results = {}

    def p(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        v = yield env.all_of([t1, t2])
        results["v"] = v
        results["t1"] = v[t1]

    env.process(p(env))
    env.run()
    assert results["t1"] == "a"
    assert len(results["v"]) == 2


def test_condition_propagates_failure(env):
    caught = []

    def failer(env):
        yield env.timeout(1)
        raise RuntimeError("inner")

    def p(env):
        try:
            yield env.all_of([env.timeout(5), env.process(failer(env))])
        except RuntimeError as e:
            caught.append(str(e))

    env.process(p(env))
    env.run()
    assert caught == ["inner"]


def test_condition_rejects_cross_environment_events(env):
    other = Environment()
    t_other = other.timeout(1)
    with pytest.raises(ValueError):
        AllOf(env, [env.timeout(1), t_other])


def test_condition_with_pre_processed_event(env):
    ev = env.event()
    ev.succeed("x")
    env.run()  # process it
    assert ev.processed

    got = []

    def p(env):
        v = yield env.all_of([ev, env.timeout(1)])
        got.append(env.now)

    env.process(p(env))
    env.run()
    assert got == [1]
