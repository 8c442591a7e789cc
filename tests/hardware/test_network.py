"""Fabric model: message path, loopback, incast stretch."""

import pytest

from repro.config import NetworkParams
from repro.errors import ConfigurationError
from repro.hardware.network import Network
from repro.units import KiB


def test_message_path_timing(env):
    params = NetworkParams(incast_flow_threshold=None)
    net = Network(env, 2, params)
    done = []

    def p(env):
        yield net.transfer(0, 1, 32 * KiB)
        done.append(env.now)

    env.process(p(env))
    env.run()
    expected = 2 * (32 * KiB / params.link_rate) + params.switch_latency_s
    assert done[0] == pytest.approx(expected)
    assert net.bytes_switched == 32 * KiB


def test_loopback_is_free_at_fabric_level(env):
    net = Network(env, 2, NetworkParams())
    done = []

    def p(env):
        yield net.transfer(0, 0, 1_000_000)
        done.append(env.now)

    env.process(p(env))
    env.run()
    assert done == [0]
    assert net.bytes_switched == 0


def test_bad_endpoints_rejected(env):
    from repro.sim.core import SimulationError

    net = Network(env, 2, NetworkParams())
    net.transfer(0, 5, 100)
    # The failing process surfaces as an unhandled simulation failure
    # whose cause is the configuration error.
    with pytest.raises(SimulationError) as exc:
        env.run()
    assert isinstance(exc.value.__cause__, ConfigurationError)


def test_rejected_send_moves_nothing(env):
    """A negative size is refused before the fabric counts anything."""
    from repro.sim.core import SimulationError

    net = Network(env, 4, NetworkParams())
    net.transfer(0, 1, -5)
    with pytest.raises(SimulationError) as exc:
        env.run()
    assert isinstance(exc.value.__cause__, ValueError)
    assert net.messages == 0
    assert net.bytes_switched == 0.0
    assert net.nics[0].tx.bytes_carried == 0.0
    assert net._flows_seen[1] == {}


def test_nan_send_moves_nothing(env):
    """A NaN size is refused like a negative one, before any counter."""
    from repro.sim.core import SimulationError

    net = Network(env, 4, NetworkParams())
    net.transfer(0, 1, float("nan"))
    with pytest.raises(SimulationError) as exc:
        env.run()
    assert isinstance(exc.value.__cause__, ValueError)
    assert net.messages == 0
    assert net.bytes_switched == 0.0
    assert net.nics[0].tx.bytes_carried == 0.0
    assert net._flows_seen[1] == {}


def test_tx_serializes_rx_parallel_sources(env):
    """Two senders to two different receivers don't interfere."""
    params = NetworkParams(incast_flow_threshold=None)
    net = Network(env, 4, params)
    done = {}

    def p(env, src, dst):
        yield net.transfer(src, dst, 32 * KiB)
        done[(src, dst)] = env.now

    env.process(p(env, 0, 2))
    env.process(p(env, 1, 3))
    env.run()
    assert done[(0, 2)] == pytest.approx(done[(1, 3)])


def test_incast_stretch_kicks_in_beyond_threshold(env):
    params = NetworkParams(
        incast_flow_threshold=2,
        incast_penalty=0.5,
        incast_max_stretch=2.0,
    )
    net = Network(env, 6, params)
    # Five distinct senders with in-flight messages toward node 0.
    for src in range(1, 6):
        net._flow_enter(src, 0)
    # threshold 2 -> excess 3 -> stretch 1.5 (below the 2.0 cap).
    s = net._incast_stretch(5, 0)
    assert s == pytest.approx(min(0.5 * 3, 2.0))


def test_incast_flows_clear_on_exit(env):
    params = NetworkParams(incast_flow_threshold=1, incast_penalty=0.5)
    net = Network(env, 4, params)
    net._flow_enter(1, 0)
    net._flow_enter(2, 0)
    assert net._incast_stretch(2, 0) > 0
    net._flow_exit(1, 0)
    net._flow_exit(2, 0)
    assert net._incast_stretch(3, 0) == 0.0


def test_incast_refcounts_multiple_messages_per_source(env):
    params = NetworkParams(incast_flow_threshold=1, incast_penalty=0.5)
    net = Network(env, 4, params)
    net._flow_enter(1, 0)
    net._flow_enter(1, 0)  # same source twice: still one flow
    assert net._incast_stretch(1, 0) == 0.0
    net._flow_exit(1, 0)
    net._flow_enter(2, 0)
    assert net._incast_stretch(2, 0) > 0  # sources {1, 2}


def test_incast_disabled(env):
    params = NetworkParams(incast_flow_threshold=None)
    net = Network(env, 4, params)
    for src in range(1, 4):
        assert net._incast_stretch(src, 0) == 0.0


def test_aggregate_utilization_bounds(env):
    net = Network(env, 2, NetworkParams(incast_flow_threshold=None))

    def p(env):
        yield net.transfer(0, 1, 125_000)
        yield env.timeout(0.01)

    env.process(p(env))
    env.run()
    busy = sum(nic.tx.busy_time + nic.rx.busy_time for nic in net.nics)
    assert 0 < busy < 2 * len(net.nics) * env.now
