"""Kernel corner cases: interrupts racing events, condition edge
semantics, shared-channel churn, and event trigger mirroring."""

import pytest

from repro.sim import (
    AnyOf,
    BandwidthLink,
    Environment,
    Event,
    Interrupt,
    SharedChannel,
)
from repro.sim.core import EmptySchedule, SimulationError


def test_interrupt_racing_completion_is_lost(env):
    """An interrupt scheduled at the same instant the process finishes
    is silently dropped — the process already terminated."""
    def quick(env):
        yield env.timeout(1)

    victim = env.process(quick(env))

    def attacker(env):
        yield env.timeout(1)
        if victim.is_alive:
            victim.interrupt("too late?")

    env.process(attacker(env))
    env.run()  # must not raise
    assert victim.ok


def test_interrupted_process_can_continue(env):
    out = []

    def resilient(env):
        for _ in range(3):
            try:
                yield env.timeout(10)
                out.append("slept")
            except Interrupt:
                out.append("poked")

    victim = env.process(resilient(env))

    def attacker(env):
        yield env.timeout(1)
        victim.interrupt()
        yield env.timeout(1)
        victim.interrupt()

    env.process(attacker(env))
    env.run()
    assert out == ["poked", "poked", "slept"]


@pytest.mark.parametrize("mode", ["hold", "transfer"])
def test_interrupt_during_link_wait_releases_at_orphan_pop(env, mode):
    """An interrupted link wait keeps its reservation until its heap
    entry pops: ``outstanding`` drops at the orphan's pop (t=10), not at
    the interrupt (t=1), for a hold exactly as for a transfer."""
    link = BandwidthLink(env, rate=1.0)
    seen = []

    def wait(n):
        return link.hold(n) if mode == "hold" else link.transfer(n)

    def victim(env):
        try:
            yield wait(10)
        except Interrupt:
            seen.append(("poked", env.now, link.outstanding))
        yield wait(1)  # queues behind the orphaned reservation
        seen.append(("done", env.now, link.outstanding))

    proc = env.process(victim(env))

    def attacker(env):
        yield 1
        proc.interrupt()
        yield 4
        seen.append(("t5", env.now, link.outstanding))
        yield 5.5
        seen.append(("t10.5", env.now, link.outstanding))

    env.process(attacker(env))
    env.run()
    assert seen == [
        ("poked", 1, 1),
        ("t5", 5, 2),
        ("t10.5", 10.5, 1),
        ("done", 11, 0),
    ]


@pytest.mark.parametrize("drive", ["run", "step"])
def test_interrupted_hold_under_step_and_run(drive):
    """The generic ``step`` path releases an orphaned hold exactly where
    the inlined ``run`` loop does."""
    env = Environment()
    link = BandwidthLink(env, rate=1.0)
    trail = []

    def victim(env):
        try:
            yield link.hold(3)
        except Interrupt:
            trail.append((env.now, link.outstanding))
        yield 4
        trail.append((env.now, link.outstanding))

    proc = env.process(victim(env))

    def attacker(env):
        yield 1
        proc.interrupt()

    env.process(attacker(env))
    if drive == "run":
        env.run()
    else:
        while True:
            try:
                env.step()
            except EmptySchedule:
                break
    assert trail == [(1, 1), (5, 0)]
    assert env.processed_events == 8


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


def test_anyof_with_immediate_event(env):
    ev = env.event()
    ev.succeed("now")
    got = []

    def p(env):
        v = yield AnyOf(env, [ev, env.timeout(100)])
        got.append(env.now)

    env.process(p(env))
    env.run(until=50)
    assert got == [0]


def test_condition_failure_after_trigger_is_defused(env):
    """A second failing member of an AnyOf must not crash the run."""
    def fail_at(env, t):
        yield env.timeout(t)
        raise RuntimeError("late failure")

    def p(env):
        a = env.timeout(1)
        b = env.process(fail_at(env, 2))
        yield env.any_of([a, b])

    env.process(p(env))
    env.run()  # late failure of b is swallowed by the condition


def test_shared_channel_many_overlapping_flows(env):
    ch = SharedChannel(env, rate=100.0)
    done = []

    def flow(env, start, size):
        yield env.timeout(start)
        yield ch.transfer(size)
        done.append(env.now)

    for i in range(10):
        env.process(flow(env, i * 0.1, 25.0))
    env.run()
    assert len(done) == 10
    # Total work conservation: last completion >= total bytes / rate.
    assert max(done) >= 10 * 25.0 / 100.0 - 1e-9
    assert ch.active_flows == 0


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
