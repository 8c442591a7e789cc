"""Finished processes are freed by reference counting, not the cyclic GC.

Every test runs with the cyclic collector disabled: a ``Process`` (or
its reusable ``_Sleep``) that outlives its last outside reference is
kept alive only by a reference cycle, and shows up in
``gc.get_objects()``.
"""

import gc

import pytest

from repro.sim import Environment
from repro.sim.core import Process, _Sleep
from repro.sim.shared import BandwidthLink


class _Boom(Exception):
    pass


def _scenario(env):
    """Start processes that leave through every exit path."""
    link = BandwidthLink(env, rate=1000.0, latency=0.001)
    caught = []

    def sleeper():
        yield 0.5
        return "slept"

    def holder():
        yield link.hold(100)
        return "held"

    def child(dt):
        yield dt
        return dt

    def waiter():
        got = yield env.process(child(0.25))
        both = yield env.all_of(
            [env.process(child(0.1)), env.process(child(0.2))]
        )
        return got, sorted(e.value for e in both)

    def failer(dt):
        if dt:
            yield dt
        raise _Boom()

    def catcher():
        for dt in (0.1, 0):  # fail from a sleep, and before any yield
            try:
                yield env.process(failer(dt))
            except _Boom:
                caught.append(env.now)
        return "caught"

    procs = [
        env.process(g())
        for g in (sleeper, holder, waiter, catcher)
    ]
    return procs, caught


def _drain_run(env):
    env.run()


def _drain_step(env):
    while env.peek() != float("inf"):
        env.step()


def _live_kernel_objects():
    return [
        o for o in gc.get_objects() if type(o) in (Process, _Sleep)
    ]


@pytest.mark.parametrize("drain", [_drain_run, _drain_step])
def test_finished_processes_need_no_cyclic_gc(drain):
    gc.collect()
    before = {id(o) for o in _live_kernel_objects()}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env = Environment()
        procs, caught = _scenario(env)
        drain(env)
        assert [p.value for p in procs] == [
            "slept",
            "held",
            (0.25, [0.1, 0.2]),
            "caught",
        ]
        assert caught == [0.1, 0.1]
        del env, procs, caught
        leaked = [
            o for o in _live_kernel_objects() if id(o) not in before
        ]
        assert leaked == []
    finally:
        if was_enabled:
            gc.enable()
