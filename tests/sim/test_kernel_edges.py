"""Kernel corner cases: resumes after inline sleeps, condition edge
semantics, and event trigger mirroring."""

import pytest

from repro.sim import Environment


def test_yields_after_inline_sleep_take_resume_arms(env):
    """What a process yields right after an inline sleep resume — a
    negative delay, an already-processed event (ok or failed), a
    non-event — is handled exactly as after any other wait."""
    ok = env.event()
    ok.succeed("v")
    bad = env.event()
    bad.fail(KeyError("k"))
    bad.defused()
    env.run()  # both are processed now
    log = []

    def p(env):
        yield 1.0
        try:
            yield -1.0
        except ValueError:
            log.append(("negative", env.now))
        yield 1.0
        log.append(("ok", (yield ok), env.now))
        yield 1.0
        try:
            yield bad
        except KeyError:
            log.append(("failed", env.now))
        yield 1.0
        yield "not an event"

    proc = env.process(p(env))

    def watcher(env):
        try:
            yield proc
        except TypeError:
            log.append(("non-event", env.now))

    env.process(watcher(env))
    env.run()
    assert log == [
        ("negative", 1.0), ("ok", "v", 2.0), ("failed", 3.0),
        ("non-event", 4.0),
    ]


def test_event_trigger_mirrors_success(env):
    src, dst = env.event(), env.event()
    src.succeed("payload")
    dst.trigger(src)
    assert dst.triggered and dst.ok and dst.value == "payload"


def test_event_trigger_mirrors_failure(env):
    src, dst = env.event(), env.event()
    src._ok = False
    src._value = ValueError("x")
    dst.trigger(src)
    assert dst.triggered and not dst.ok
    dst.defused()
    env.run()


def test_condition_failure_after_trigger_is_defused(env):
    """A second failing member of a failed AllOf must not crash the run."""
    def fail_at(env, t):
        yield env.timeout(t)
        raise RuntimeError("late failure")

    caught = []

    def p(env):
        a = env.process(fail_at(env, 1))
        b = env.process(fail_at(env, 2))
        try:
            yield env.all_of([a, b])
        except RuntimeError:
            caught.append(env.now)

    env.process(p(env))
    env.run()  # late failure of b is swallowed by the condition
    assert caught == [1]


def test_environment_len_reflects_queue(env):
    env.timeout(1)
    env.timeout(2)
    assert len(env) == 2
    env.run()
    assert len(env) == 0


def test_nested_process_chains(env):
    def leaf(env):
        yield env.timeout(1)
        return "leaf"

    def middle(env):
        v = yield env.process(leaf(env))
        return v + "+middle"

    def root(env):
        v = yield env.process(middle(env))
        return v + "+root"

    assert env.run(env.process(root(env))) == "leaf+middle+root"


def test_failure_through_nested_chain(env):
    def leaf(env):
        yield env.timeout(1)
        raise KeyError("deep")

    def middle(env):
        yield env.process(leaf(env))

    def root(env):
        yield env.process(middle(env))

    with pytest.raises(KeyError):
        env.run(env.process(root(env)))


def test_two_environments_are_isolated():
    a, b = Environment(), Environment()
    hits = []

    def p(env, tag):
        yield env.timeout(1)
        hits.append(tag)

    a.process(p(a, "a"))
    b.process(p(b, "b"))
    a.run()
    assert hits == ["a"]
    b.run()
    assert hits == ["a", "b"]


@pytest.mark.parametrize("bulk", [False, True], ids=["schedule", "many"])
def test_negative_schedule_delay_rejected(env, bulk):
    """A negative delay would pop in the past and move the clock back;
    both scheduling entry points reject it, as ``timeout()`` does,
    before drawing a sequence key."""
    env.run(until=5.0)
    ev = env.event()
    ev._ok, ev._value = True, None
    key_before = next(env._seq)
    with pytest.raises(ValueError, match="negative delay"):
        if bulk:
            env.schedule_many([ev], delay=-2.0)
        else:
            env.schedule(ev, delay=-2.0)
    assert next(env._seq) == key_before + 1  # no key drawn
    assert len(env) == 0
    env.run()
    assert env.now == 5.0
    assert not ev.processed
