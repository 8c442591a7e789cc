"""BandwidthLink timing semantics."""

import heapq
import random

import pytest

from repro.sim import BandwidthLink, Environment, core
from repro.sim.core import EmptySchedule


def test_link_serializes_transfers(env):
    link = BandwidthLink(env, rate=100.0)
    done = {}

    def t(env, i):
        yield link.transfer(100)
        done[i] = env.now

    env.process(t(env, 0))
    env.process(t(env, 1))
    env.run()
    assert done[0] == pytest.approx(1.0)
    assert done[1] == pytest.approx(2.0)


def test_link_latency_added_per_transfer(env):
    link = BandwidthLink(env, rate=100.0, latency=0.25)
    done = []

    def t(env):
        yield link.transfer(100)
        done.append(env.now)

    env.process(t(env))
    env.run()
    assert done == [pytest.approx(1.25)]


def test_link_zero_bytes_costs_latency_only(env):
    link = BandwidthLink(env, rate=100.0, latency=0.5)
    done = []

    def t(env):
        yield link.transfer(0)
        done.append(env.now)

    env.process(t(env))
    env.run()
    assert done == [pytest.approx(0.5)]


def test_link_validation(env):
    with pytest.raises(ValueError):
        BandwidthLink(env, rate=0)
    with pytest.raises(ValueError):
        BandwidthLink(env, rate=1, latency=-1)
    link = BandwidthLink(env, rate=1)
    with pytest.raises(ValueError):
        link.transfer(-5)


def test_link_utilization_accounting(env):
    link = BandwidthLink(env, rate=100.0)

    def t(env):
        yield link.transfer(100)
        yield env.timeout(1)  # idle second

    env.process(t(env))
    env.run()
    # Busy one second of two: half utilized.
    assert link.busy_time == pytest.approx(1.0)
    assert env.now == pytest.approx(2.0)
    assert link.bytes_carried == 100


def test_link_stretch_extends_duration(env):
    link = BandwidthLink(env, rate=100.0)
    done = []

    def t(env):
        yield link.transfer(100, stretch=0.5)
        done.append(env.now)

    env.process(t(env))
    env.run()
    assert done == [pytest.approx(1.5)]
    assert link.congestion_delay == pytest.approx(0.5)


def _contended(monkeypatch, mode, drive="run", seed=7):
    """A seeded workload of six processes contending on one link, each
    wait issued as ``hold`` or as a yielded ``transfer``.

    Waits follow an ``env.timeout`` (resumed by ``_resume``), a numeric
    sleep (the run loop's inline path), or another wait, and some are
    followed by an event yield (``_park``).  Returns every heap pop as
    ``(time hex, key, outstanding)``, each wait's completion as
    ``(process, time hex, outstanding)``, and the link's totals.
    """
    env = Environment()
    link = BandwidthLink(env, rate=1000.0, latency=0.003)
    rng = random.Random(seed)
    plans = [
        [
            (
                rng.choice(("timeout", "sleep", "none")),
                rng.choice((0.0, 0.001, 0.0025)),
                rng.choice((0, 10, 64, 500)),
                rng.choice((0.0, 0.0, 0.5)),
                rng.random() < 0.2,
            )
            for _ in range(25)
        ]
        for _ in range(6)
    ]
    pops, done = [], []

    def pop(queue):
        item = heapq.heappop(queue)
        pops.append((float(item[0]).hex(), item[1], link.outstanding))
        return item

    def pushpop(queue, entry):
        item = heapq.heappushpop(queue, entry)
        pops.append((float(item[0]).hex(), item[1], link.outstanding))
        return item

    monkeypatch.setattr(core, "heappop", pop)
    monkeypatch.setattr(core, "heappushpop", pushpop)

    def user(i, plan):
        for before, dt, nbytes, stretch, then_event in plan:
            if before == "timeout":
                yield env.timeout(dt)
            elif before == "sleep":
                yield dt
            if mode == "hold":
                yield link.hold(nbytes, stretch=stretch)
            else:
                yield link.transfer(nbytes, stretch=stretch)
            done.append((i, env.now.hex(), link.outstanding))
            if then_event:
                yield env.timeout(0)

    for i, plan in enumerate(plans):
        env.process(user(i, plan))
    if drive == "run":
        env.run()
    else:
        while True:
            try:
                env.step()
            except EmptySchedule:
                break
    assert link.outstanding == 0
    totals = (link.bytes_carried, link.busy_time.hex(),
              link.congestion_delay.hex(), env.processed_events)
    return pops, done, totals


def test_hold_matches_transfer_pop_for_pop(monkeypatch):
    # A hold is the same wait as a yielded transfer: the same heap
    # (time, key) at every pop, the same completion floats, and the same
    # ``outstanding`` wherever it is sampled.
    held = _contended(monkeypatch, "hold")
    transferred = _contended(monkeypatch, "transfer")
    assert held == transferred
    pops, done, _ = held
    assert len(done) == 6 * 25
    assert max(o for _t, _k, o in pops) > 1  # the link really contends


def test_hold_under_step_matches_run(monkeypatch):
    assert _contended(monkeypatch, "hold", drive="step") == _contended(
        monkeypatch, "hold", drive="run"
    )


def test_hold_outside_process_raises(env):
    link = BandwidthLink(env, rate=1.0)
    with pytest.raises(RuntimeError):
        link.hold(1)
    assert link.outstanding == 0 and link.bytes_carried == 0


def test_second_hold_before_yield_raises(env):
    link = BandwidthLink(env, rate=1.0)
    done = []

    def p(env):
        delay = link.hold(2)
        with pytest.raises(RuntimeError):
            link.hold(3)  # books nothing
        yield delay
        done.append((env.now, link.outstanding))
        yield link.hold(1)  # the first hold has popped: legal again
        done.append((env.now, link.outstanding))

    env.process(p(env))
    env.run()
    assert done == [(2.0, 0), (3.0, 0)]
    assert link.bytes_carried == 3


def test_hold_validation(env):
    link = BandwidthLink(env, rate=1.0)

    def p(env):
        with pytest.raises(ValueError):
            link.hold(-1)
        with pytest.raises(ValueError):
            link.hold(1, stretch=-0.5)
        yield link.hold(1)

    env.process(p(env))
    env.run()
    assert env.now == 1.0 and link.outstanding == 0
