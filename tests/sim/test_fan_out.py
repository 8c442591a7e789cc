"""``Environment.fan_out``: a lone child runs inline at the spawned pops.

The inline form brackets the child with positional sleeps (an urgent
zero sleep, then two normal zero sleeps), so every log entry, pop count
and time must match the spawned form ``yield env.all_of(
env.process_many(gens))`` — with same-instant competitors, link holds
inside the child, a failing child, and under ``run()`` and ``step()``.
"""

import pytest

from repro.sim import URGENT, Environment
from repro.sim.core import EmptySchedule
from repro.sim.shared import BandwidthLink


class _Boom(Exception):
    pass


def _scenario(inline, n_children, fail=None, stepped=False):
    env = Environment()
    link = BandwidthLink(env, rate=1000.0, latency=0.0)
    log = []

    def note(what):
        log.append((env.now.hex(), what))

    def child(i):
        note(f"child{i} start")
        if fail == i and i % 2:
            raise _Boom(i)  # before its first yield
        yield link.hold(10 * (i + 1))
        note(f"child{i} held")
        yield 0
        if fail == i:
            raise _Boom(i)
        yield 0.001 * i
        note(f"child{i} end")
        return i

    def noise(j):
        for k in range(6):
            note(f"noise{j}.{k}")
            if k == 3 and j < 10:
                env.process(noise(j + 10))
            yield 0 if k % 2 else 0.0005 * j

    def parent():
        for j in range(3):
            env.process(noise(j))
        for round_ in range(2):
            # A normal-key event queued before the fan-out: the lone
            # child's urgent start pops ahead of it.
            tick = env.event()
            tick.callbacks.append(lambda _ev: note("tick"))
            tick.succeed()
            gens = [child(i) for i in range(n_children)]
            try:
                if inline:
                    yield from env.fan_out(gens)
                else:
                    yield env.all_of(env.process_many(gens))
            except _Boom as exc:
                note(f"caught {exc.args[0]}")
            note(f"joined {round_}")
            yield 0.0005

    env.process(parent())
    if stepped:
        try:
            while True:
                env.step()
        except EmptySchedule:
            pass
    else:
        env.run()
    return log, env.processed_events, env.now


@pytest.mark.parametrize("stepped", [False, True], ids=["run", "step"])
@pytest.mark.parametrize("fail", [None, 0, 1])
@pytest.mark.parametrize("n_children", [0, 1, 2, 3])
def test_fan_out_matches_spawned_join(n_children, fail, stepped):
    spawned = _scenario(False, n_children, fail, stepped)
    inline = _scenario(True, n_children, fail, stepped)
    assert inline == spawned
    if fail is not None and fail < n_children:
        assert any(what.startswith("caught") for _, what in inline[0])


def test_urgent_resumes_ahead_of_earlier_normal_events():
    env = Environment()
    order = []

    def normal():
        yield 0  # queued at a normal key before the URGENT below
        order.append("normal")

    def urgent():
        env.process(normal())
        yield 0
        yield URGENT  # drawn later, but pops first at this instant
        order.append("urgent")

    env.process(urgent())
    env.run()
    assert order == ["urgent", "normal"]
    assert repr(URGENT) == "URGENT"


def test_urgent_keeps_fifo_among_urgent_keys():
    env = Environment()
    order = []

    def late():
        order.append("spawned")
        yield 0

    def body():
        env.process(late())  # urgent Initialize, queued first
        yield URGENT
        order.append("urgent")

    env.process(body())
    env.run()
    assert order == ["spawned", "urgent"]
