"""Hypothesis: kernel-level invariants (ordering, conservation)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource
from repro.sim.shared import BandwidthLink


@given(
    delays=st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_events_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(waiter(env, d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    n_workers=st.integers(min_value=1, max_value=25),
)
@settings(max_examples=40, deadline=None)
def test_resource_never_oversubscribed(capacity, n_workers):
    env = Environment()
    res = Resource(env, capacity=capacity)
    active = [0]
    peak = [0]

    def worker(env):
        with res.request() as req:
            yield req
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield env.timeout(1)
            active[0] -= 1

    for _ in range(n_workers):
        env.process(worker(env))
    env.run()
    assert peak[0] <= capacity
    assert active[0] == 0


@given(
    sizes=st.lists(
        st.floats(min_value=0.1, max_value=1000, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    rate=st.floats(min_value=0.5, max_value=100, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_link_total_time_equals_work(sizes, rate):
    env = Environment()
    link = BandwidthLink(env, rate=rate)
    done = []

    def sender(env, size):
        yield link.transfer(size)
        done.append(env.now)

    for s in sizes:
        env.process(sender(env, s))
    env.run()
    import pytest

    assert max(done) == pytest.approx(sum(sizes) / rate, rel=1e-9)
    assert link.bytes_carried == pytest.approx(sum(sizes))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_simulation_is_deterministic(seed):
    """Identical setups produce identical event traces."""

    def run_once():
        env = Environment()
        trace = []

        def worker(env, i):
            yield env.timeout((seed % 7 + i) * 0.1)
            trace.append((env.now, i))
            yield env.timeout(0.05 * i)
            trace.append((env.now, i))

        for i in range(5):
            env.process(worker(env, i))
        env.run()
        return trace

    assert run_once() == run_once()
