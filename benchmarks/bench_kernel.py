"""Simulation-kernel microbenchmark: raw events/sec of the hot path.

Unlike the ``bench_*`` artifact benchmarks (which regenerate paper
figures), this one measures the *simulator substrate itself*: how many
kernel events per second `Environment.step` + `Process._resume` can
push through.  Every paper artifact is bounded by this number, so the
hot-path work in `repro.sim.core` is gated on it.

Pure-kernel scenarios (no device models):

* ``timeout_chain``   — P processes, each yielding E consecutive
  timeouts: the canonical ``yield env.timeout(dt)`` service loop that
  dominates disk/CPU/NIC server processes.
* ``sleep_chain``     — the same service loop via the kernel's numeric
  yield (``yield dt``), the form the hardware models now use; measures
  the allocation-free sleep fast path.
* ``event_relay``     — chains of processes, each waiting on one event
  and succeeding the next: exercises ``Event.succeed`` + wakeup
  delivery + process termination events.
* ``store_producer_consumer`` — P producer/consumer pairs over a
  :class:`~repro.sim.resources.Store`: the cluster message-queue path.
* ``link_chain``      — P processes contending on one node's CPU work
  link via ``yield cpu.busy(s)``: the bandwidth-link wait behind every
  protocol-CPU, driver-entry, memcpy, XOR, SCSI and NIC hop (a link
  hold, resumed inline like a numeric sleep).

Device fast-forward scenarios (kernel + the disk model, measuring the
analytic fast-forward of :mod:`repro.hardware.disk` — flip it off with
``REPRO_DISK_FF=0`` for a before/after comparison):

* ``disk_drain``      — one disk with a deep FIFO backlog queued up
  front, drained back to back: the pure serve-loop hot path.
* ``mirror_flush``    — waves of bulk background (priority 1) writes,
  the RAID-x OSM image-flush pattern, spawned via ``schedule_many``.

Run standalone::

    python benchmarks/bench_kernel.py            # print a table
    python benchmarks/bench_kernel.py --json out.json
    python benchmarks/bench_kernel.py --scale 0.1   # quick run

or under pytest-benchmark (``pytest benchmarks/bench_kernel.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict

from repro.config import CpuParams
from repro.hardware.cpu import Cpu
from repro.sim.core import Environment
from repro.sim.resources import Store

# -- scenarios ----------------------------------------------------------


def timeout_chain(processes: int = 100, timeouts: int = 2_000) -> int:
    """P processes each yield E timeouts; returns events processed.

    Service intervals differ per process (as real seek/transfer times
    do), so event timestamps are distinct — the representative case for
    heap ordering.  Lockstep identical delays would instead measure the
    degenerate all-ties case.
    """
    env = Environment()

    def proc(dt):
        for _ in range(timeouts):
            yield env.timeout(dt)

    for i in range(processes):
        env.process(proc(1.0 + i * 1e-4))
    env.run()
    # Per process: 1 Initialize + E timeouts + 1 termination event.
    return processes * (timeouts + 2)


def sleep_chain(processes: int = 100, timeouts: int = 2_000) -> int:
    """Like :func:`timeout_chain` but with numeric yields."""
    env = Environment()

    def proc(dt):
        for _ in range(timeouts):
            yield dt

    for i in range(processes):
        env.process(proc(1.0 + i * 1e-4))
    env.run()
    return processes * (timeouts + 2)


def event_relay(chain: int = 1_000, laps: int = 60) -> int:
    """Relay chains: process i waits on event i, succeeds event i+1."""
    env = Environment()
    total = 0

    def relay(events, i):
        value = yield events[i]
        events[i + 1].succeed(value + 1)

    for _ in range(laps):
        events = [env.event() for _ in range(chain + 1)]
        for i in range(chain):
            env.process(relay(events, i))
        events[0].succeed(0)
        env.run()
        assert events[chain].value == chain
        # Per lap: chain Initialize + chain+1 relayed events + chain
        # process terminations.
        total += 3 * chain + 1
    return total


def store_producer_consumer(pairs: int = 20, items: int = 2_000) -> int:
    """P producer/consumer pairs over one Store each."""
    env = Environment()

    def producer(store):
        for i in range(items):
            yield store.put(i)

    def consumer(store):
        for _ in range(items):
            yield store.get()

    for _ in range(pairs):
        store = Store(env)
        env.process(producer(store))
        env.process(consumer(store))
    env.run()
    # Per pair: 2 Initialize + items puts + items gets + 2 terminations.
    return pairs * (2 * items + 4)


def link_chain(processes: int = 100, holds: int = 2_000) -> int:
    """P processes each charge E CPU slices on one shared CPU link."""
    env = Environment()
    cpu = Cpu(env, CpuParams())

    def proc(seconds):
        for _ in range(holds):
            yield cpu.busy(seconds)

    for i in range(processes):
        env.process(proc(1e-4 * (1.0 + i * 1e-3)))
    env.run()
    # Per process: 1 Initialize + E link waits + 1 termination event.
    return processes * (holds + 2)


def disk_drain(requests: int = 8_000) -> int:
    """Drain a deep FIFO backlog on one disk, queued before t=0.

    Offsets alternate sequential runs with far seeks (both service-time
    branches); the serve loop never goes idle, so this is the purest
    measurement of per-request service cost — the path the analytic
    fast-forward replaces with one Recurring firing per completion.
    """
    from repro.config import DiskParams
    from repro.hardware.disk import Disk

    env = Environment()
    disk = Disk(env, DiskParams())
    step = 16_384
    span = disk.capacity - step
    offset = 0
    last = None
    for i in range(requests):
        if i % 8 == 0:
            offset = (i * 7_340_033) % span  # far seek, deterministic
        op = "read" if i % 3 else "write"
        last = disk.submit(op, offset, step)
        offset = (offset + step) % span
    env.run(last)
    # Normalized to the phase path's three heap events per request
    # (StorePut, service completion, done) so before/after runs report
    # comparable events/sec; the fast-forward needs fewer actual events
    # per request, which is precisely the speedup being measured.
    return 3 * requests


def mirror_flush(flushes: int = 6_400) -> int:
    """Waves of bulk background writes: the RAID-x image-flush pattern.

    Each wave submits a batch of sequential priority-1 extents (the
    n-1 images of an OSM cluster written behind the foreground ack) and
    waits for the batch, exercising schedule_many + the fast-forward's
    sequential closed form.
    """
    from repro.config import DiskParams
    from repro.hardware.disk import Disk

    env = Environment()
    disk = Disk(env, DiskParams())
    batch = 16
    waves = max(1, flushes // batch)
    extent = 65_536
    wrap = disk.capacity - batch * extent

    def flusher():
        for w in range(waves):
            base = (w * batch * extent) % wrap
            events = [
                disk.submit("write", base + j * extent, extent, priority=1)
                for j in range(batch)
            ]
            yield env.all_of(events)

    env.process(flusher())
    env.run()
    return 3 * waves * batch


SCENARIOS: Dict[str, Callable[..., int]] = {
    "timeout_chain": timeout_chain,
    "sleep_chain": sleep_chain,
    "event_relay": event_relay,
    "store_producer_consumer": store_producer_consumer,
    "link_chain": link_chain,
    "disk_drain": disk_drain,
    "mirror_flush": mirror_flush,
}


# -- measurement --------------------------------------------------------


def measure(name: str, scale: float = 1.0, repeats: int = 3) -> Dict:
    """Best-of-N wall-clock measurement of one scenario."""
    fn = SCENARIOS[name]
    kwargs = {}
    if scale != 1.0:
        import inspect

        for pname, param in inspect.signature(fn).parameters.items():
            kwargs[pname] = max(1, int(param.default * scale))
    best = float("inf")
    events = 0
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            events = fn(**kwargs)
            dt = time.perf_counter() - t0
            best = min(best, dt)
    except Exception as exc:
        # Lets the benchmark run against older kernels that lack a
        # feature a scenario needs (e.g. numeric yields).
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "events": events,
        "seconds": round(best, 6),
        "events_per_sec": round(events / best),
    }


def run_all(scale: float = 1.0, repeats: int = 3) -> Dict[str, Dict]:
    return {name: measure(name, scale, repeats) for name in SCENARIOS}


# -- pytest-benchmark hooks --------------------------------------------

try:  # pragma: no cover - only when pytest-benchmark is present
    import pytest

    @pytest.mark.benchmark(group="kernel")
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_kernel_scenario(benchmark, name):
        events = benchmark.pedantic(
            SCENARIOS[name], rounds=1, iterations=1
        )
        benchmark.extra_info["events"] = events

except ImportError:  # pragma: no cover
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write results as JSON")
    parser.add_argument("--label", default=None,
                        help="label stored in the JSON (e.g. before/after)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale scenario sizes (0.1 = quick run)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    results = run_all(scale=args.scale, repeats=args.repeats)
    width = max(len(n) for n in results)
    print(f"{'scenario':<{width}}  {'events':>10}  {'seconds':>9}  "
          f"{'events/sec':>12}")
    for name, r in results.items():
        if "error" in r:
            print(f"{name:<{width}}  unsupported: {r['error']}")
            continue
        print(f"{name:<{width}}  {r['events']:>10}  {r['seconds']:>9.4f}  "
              f"{r['events_per_sec']:>12}")

    if args.json:
        payload = {"label": args.label, "python": sys.version.split()[0],
                   "scale": args.scale, "scenarios": results}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"[written {args.json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
