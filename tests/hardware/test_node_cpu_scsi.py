"""CPU cost model, SCSI bus, and node assembly."""

import pytest

from repro.config import CpuParams
from repro.hardware.cpu import Cpu
from repro.hardware.node import Node
from repro.hardware.scsi import ScsiBus
from repro.units import KiB, MB
from tests.conftest import small_config


def test_cpu_busy_serializes(env):
    cpu = Cpu(env, CpuParams())
    done = {}

    def p(env, i):
        yield cpu.busy(1.0)
        done[i] = env.now

    env.process(p(env, 0))
    env.process(p(env, 1))
    env.run()
    assert done[0] == pytest.approx(1.0)
    assert done[1] == pytest.approx(2.0)


def test_cpu_xor_cost_scales_with_passes(env):
    cpu = Cpu(env, CpuParams())
    times = []

    def p(env):
        t0 = env.now
        yield cpu.xor(8 * MB, passes=1)
        times.append(env.now - t0)
        t0 = env.now
        yield cpu.xor(8 * MB, passes=3)
        times.append(env.now - t0)

    env.process(p(env))
    env.run()
    assert times[1] == pytest.approx(3 * times[0])


def test_cpu_negative_time_rejected(env):
    cpu = Cpu(env, CpuParams())
    with pytest.raises(ValueError):
        cpu.busy(-1)


def test_driver_entry_kernel_cheaper_than_user(env):
    cpu = Cpu(env, CpuParams())
    t = {}

    def p(env):
        t0 = env.now
        yield cpu.driver_entry(kernel_level=True)
        t["kernel"] = env.now - t0
        t0 = env.now
        yield cpu.driver_entry(kernel_level=False)
        t["user"] = env.now - t0

    env.process(p(env))
    env.run()
    assert t["kernel"] < t["user"]


def test_scsi_bus_serializes_transfers(env):
    bus = ScsiBus(env, rate=1000.0, arbitration_s=0.0)
    done = {}

    def p(env, i):
        yield bus.transfer(1000)
        done[i] = env.now

    env.process(p(env, 0))
    env.process(p(env, 1))
    env.run()
    assert done[0] == pytest.approx(1.0)
    assert done[1] == pytest.approx(2.0)


def test_node_owns_expected_disks(env):
    cfg = small_config(n=4, k=3)
    node = Node(env, cfg, node_id=1, disk_ids=[1, 5, 9])
    assert [d.disk_id for d in node.disks] == [1, 5, 9]
    assert node.local_disk(5).disk_id == 5
    with pytest.raises(KeyError):
        node.local_disk(2)


def test_node_disk_io_charges_bus_and_disk(env):
    cfg = small_config(n=4, k=1)
    node = Node(env, cfg, node_id=0, disk_ids=[0])
    done = []

    def p(env):
        yield env.process(node.disk_io(0, "read", 0, 32 * KiB))
        done.append(env.now)

    env.process(p(env))
    env.run()
    disk_only = (
        cfg.disk.controller_overhead_s + 32 * KiB / cfg.disk.media_rate
    )
    assert done[0] > disk_only  # SCSI time added on top
