#!/usr/bin/env python3
"""The repository benchmark: host time, memory and fidelity of the
RAID-x simulator on three workloads, plus a traced per-layer run.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload scale128_read --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` repeats the workload (set-up, then the measured phase)
until ``--seconds`` have passed and reports the end-to-end metrics:

* ``wall_s``       host seconds of the measured phase, each point's
  fastest repetition summed (see :func:`best_of`); lazy tables built on
  first use count, since every sweep shard pays them;
* ``setup_s``      host seconds of ``build_cluster`` plus workload
  construction, each point's fastest of at least three set-ups summed;

  both rescaled to a fixed host speed by a reference loop timed through
  the run (``REF_LOOP_S``; the detail line keeps the plain seconds);
* ``peak_rss_mb``  peak resident memory of this process, read before
  the fidelity points below run;
* ``paper_err``    mean ``|ln(measured/paper)|`` over five headline
  ratios of the paper (``suite.PAPER_RATIOS``).  ``paper_artifacts``
  reads them from its own grid; the other workloads simulate just the
  nine points the ratios need, after measuring, so every workload
  carries the fidelity guard.

``--trace 1`` runs one untraced and one profiled repetition and reports
the per-layer ledger (``layers.py``), the simulated-load counters, and
``trace.overhead`` (profiled over unprofiled measured-phase seconds).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a header line before it
records the interpreter, ``nproc``, commit, source fingerprint, seed
and the simulator's environment switches, which must be at their
defaults.  Exits with status 2, printing no result, when it is not run
from a checkout that holds ``src/repro``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Simulator switches the benchmark refuses to run under, with their
#: default values (unset is also accepted).
SWITCHES = {
    "REPRO_NODE_FF": "1",
    "REPRO_DISK_FF": "1",
    "REPRO_CACHE": "1",
    "REPRO_BENCH_CACHE": "1",
    "REPRO_BENCH_WORKERS": "0",
}

#: Set-up is sampled at least this many times per run ...
SETUP_MIN_SAMPLES = 3
#: ... and, when it is cheap, extra set-up-only samples follow every
#: repetition until that repetition's samples add up to this many
#: seconds, so the samples span the whole run.
SETUP_SLICE_S = 0.25

#: On a shared 2-vCPU VM the host's speed swings by up to 1.6x, in
#: phases that can outlast a whole run, and no number of repetitions
#: inside one run gets past a phase that covers all of it.  So timings
#: are rescaled to a fixed host speed: a small pure-Python loop that
#: touches nothing of the simulator is timed through the run, and every
#: timing is multiplied by ``REF_LOOP_S`` over the loop's fastest
#: sample (see :class:`Speed`).  ``REF_LOOP_S`` is the loop's fastest
#: time on that VM, so a run at the host's full speed reports plain
#: host seconds.
REF_LOOP_N = 300_000
REF_LOOP_S = 0.0200
#: Three loop samples precede every repetition, and one follows each
#: point once this many seconds have passed since the last.
REF_EVERY_S = 0.5


def declared_units(root: str, traced: bool) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this
    mode (``s`` is host seconds; simulated time is ``sim_s``/``sim_ms``
    so the two clocks are never confused)."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        m["name"]: m["unit"]
        for m in spec["per_layer" if traced else "end_to_end"]
    }


class Clock:
    """Host seconds of the set-up and measured phases of a repetition;
    with ``profile`` set, each phase runs under its own profiler."""

    def __init__(self, profile: bool = False):
        #: Seconds of each ``setup`` and ``run`` call, in call order.
        self.setups: List[float] = []
        self.runs: List[float] = []
        self.setup_prof = cProfile.Profile() if profile else None
        self.run_prof = cProfile.Profile() if profile else None

    def setup(self, fn: Callable, *args):
        t0 = time.perf_counter()
        result = _call(self.setup_prof, fn, args)
        self.setups.append(time.perf_counter() - t0)
        return result

    def run(self, fn: Callable, *args):
        t0 = time.perf_counter()
        result = _call(self.run_prof, fn, args)
        self.runs.append(time.perf_counter() - t0)
        return result


class Speed:
    """Samples of the reference loop, taken through a run."""

    def __init__(self):
        self.samples: List[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        t0 = time.perf_counter()
        if not force and t0 - self._last < REF_EVERY_S:
            return
        s = 0
        for i in range(REF_LOOP_N):
            s += i * i % 7
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    @property
    def scale(self) -> float:
        """Factor that takes this run's host seconds to the reference
        speed."""
        return REF_LOOP_S / min(self.samples)


def _call(prof: Optional[cProfile.Profile], fn: Callable, args):
    if prof is None:
        return fn(*args)
    prof.enable()
    try:
        return fn(*args)
    finally:
        prof.disable()


@dataclass
class Rep:
    """One repetition of a workload: timings and everything simulated."""

    #: Set-up and measured-phase seconds per point.
    point_setup: Dict[tuple, float]
    point_wall: Dict[tuple, float]
    results: Dict[tuple, Dict]
    violations: List[str]
    issued: int
    failed: int
    digest: str = ""
    clock: Optional[Clock] = field(default=None, repr=False)

    @property
    def setup_s(self) -> float:
        return sum(self.point_setup.values())

    @property
    def wall_s(self) -> float:
        return sum(self.point_wall.values())


def run_rep(points, clock: Clock, speed: Optional[Speed] = None) -> Rep:
    """Build and run every point once under ``clock``, sampling
    ``speed`` between points."""
    import gate
    import suite

    results: Dict[tuple, Dict] = {}
    violations: List[str] = []
    issued = failed = 0
    for p in points:
        cluster, driver = clock.setup(p.build)
        sim = clock.run(p.run, driver)
        out, bad = suite.inspect(p, cluster, sim)
        del cluster, driver
        if speed is not None:
            speed.sample()
        results[p.key] = out
        violations += bad
        issued += p.issued
        failed += sim.get("failed", 0)
    keys = [p.key for p in points]
    rep = Rep(dict(zip(keys, clock.setups)), dict(zip(keys, clock.runs)),
              results, violations, issued, failed, clock=clock)
    rep.digest = gate.sim_digest(results)
    return rep


def best_of(samples: List[Dict[tuple, float]]) -> float:
    """Seconds as the sum, over points, of each point's fastest sample.

    Interference from other tenants of the host only ever adds time,
    and it comes in phases from under a second to minutes long (a
    reference loop's mean speed over 5 s windows varied by 1.3-1.6x on
    a 2-vCPU VM, its best by 1.0-1.1x; medians of set-up times drifted
    by a third between minutes), so the fastest sample of each short
    point is the steadiest estimate of what the code itself costs.
    """
    return sum(min(s[k] for s in samples) for k in samples[0])


def setup_only(points) -> Dict[tuple, float]:
    """Set-up seconds per point of one set-up-only pass (nothing runs)."""
    clock = Clock()
    for p in points:
        clock.setup(p.build)
    return dict(zip((p.key for p in points), clock.setups))


def measure(points, seconds: float):
    """Repeat the workload for ``seconds``; returns the repetitions, the
    set-up samples (each repetition's own, plus set-up-only samples
    taken right after it while they are cheap) and the host speed.  A
    repetition starts only if one as long as the last would end less
    than half of it past ``seconds``."""
    reps: List[Rep] = []
    setups: List[Dict[tuple, float]] = []
    speed = Speed()
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(3):
            speed.sample(force=True)
        reps.append(run_rep(points, Clock(), speed))
        setups.append(reps[-1].point_setup)
        spent = reps[-1].setup_s
        while spent < SETUP_SLICE_S:
            setups.append(setup_only(points))
            spent += sum(setups[-1].values())
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            break
    while len(setups) < SETUP_MIN_SAMPLES:
        setups.append(setup_only(points))
    return reps, setups, speed


# -- per-layer counters ------------------------------------------------------
def load_metrics(rep: Rep) -> Dict[str, float]:
    """Simulated-load, fast-path, cache and workload counters of one
    repetition (identical for every repetition of a correct run)."""
    from repro.obs.load import (
        CACHE_DIRTY_HW,
        QUEUE_DEPTH_HW,
        disk_utilizations,
        utilization_skew,
    )
    from repro.obs.metrics import LogHistogram, MetricsRegistry

    outs = list(rep.results.values())
    load = MetricsRegistry()
    latency = LogHistogram()
    engine: Dict[str, int] = {}
    for o in outs:
        load.merge(MetricsRegistry.from_payload(o["load"]))
        sim = o["sim"]
        if "hist" in sim:
            latency.merge(LogHistogram.from_payload(sim["hist"]))
        else:
            latency.add(sim["sim_s"])
        for k, v in o.get("engine", {}).items():
            engine[k] = engine.get(k, 0) + v

    def total(suffix: str, prefix: str = "load.") -> float:
        return sum(
            load.counter(n).value
            for n in load.counter_names()
            if n.startswith(prefix) and n.endswith(suffix)
        )

    events = sum(o["events"] for o in outs)
    fast = engine.get("fast_submits", 0)
    phase = engine.get("phase_submits", 0)
    hits, misses = total(".cache.hits"), total(".cache.misses")
    utils = list(disk_utilizations(load).values())
    dirty_hw = (
        load.histogram(CACHE_DIRTY_HW).max
        if CACHE_DIRTY_HW in load.histogram_names() else 0
    )
    return {
        "sim.events": events,
        "sim.events_per_req": events / rep.issued,
        "engine.fast_submits": fast,
        "engine.phase_submits": phase,
        "engine.ff_fraction": fast / (fast + phase) if fast + phase else 0.0,
        "engine.ff_plan_evictions": engine.get("ff_plan_evictions", 0),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": total(".cache.evictions"),
        "cache.destaged": total(".cache.destaged"),
        "cache.destage_batches": total(".cache.destage_batches"),
        "cache.absorbed": total(".cache.absorbed"),
        "cache.lost": total(".cache.lost"),
        "cache.dirty_hw": dirty_hw,
        "hardware.disk_reads": total(".reads", "load.disk"),
        "hardware.disk_writes": total(".writes", "load.disk"),
        "hardware.disk_util": sum(utils) / len(utils),
        "hardware.util_skew": utilization_skew(load),
        "hardware.qd_hw": load.histogram(QUEUE_DEPTH_HW).max,
        "hardware.nic_bytes": total("_bytes", "load.nic"),
        "workloads.completed": sum(
            o["sim"].get("completed", 1) for o in outs
        ),
        "workloads.sim_s": sum(o["sim"]["sim_s"] for o in outs),
        "workloads.sim_p50_ms": latency.percentile(50) * 1e3,
        "workloads.sim_p99_ms": latency.percentile(99) * 1e3,
    }


# -- header ------------------------------------------------------------------
def _commit(root: str) -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_fingerprint(src: str) -> str:
    """sha256 over the simulator's source files (works without git)."""
    h = hashlib.sha256()
    base = os.path.join(src, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def header(args, root: str, src: str) -> Dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "src_sha256": _src_fingerprint(src),
        "switches": {k: os.environ.get(k, "unset") for k in SWITCHES},
    }


# -- main --------------------------------------------------------------------
def _parse(argv):
    import suite

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true",
        help="smoke-test scale: small clusters and few requests",
    )
    return ap.parse_args(argv)


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return _fail("no src/repro here; run from the repository root")
    bad = {
        k: os.environ[k] for k, default in SWITCHES.items()
        if os.environ.get(k, default) != default
    }
    if bad:
        return _fail(f"simulator switches must be at their defaults: {bad}")
    sys.path.insert(0, src)
    args = _parse(argv)

    import gate
    import layers
    import suite

    print(json.dumps({"header": header(args, root, src)}), flush=True)
    points = suite.WORKLOADS[args.workload](args.seed, args.tiny)

    if args.trace:
        gc.collect()
        reps = [run_rep(points, Clock())]
        gc.collect()
        reps.append(run_rep(points, Clock(profile=True)))
    else:
        reps, setups, speed = measure(points, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    violations = [v for r in reps for v in r.violations]
    if args.workload == "paper_artifacts":
        fidelity = {k: o["sim"] for k, o in reps[0].results.items()}
        violations += suite.paper_orderings(fidelity)
    else:
        extra = run_rep(suite.fidelity_points(), Clock())
        violations += extra.violations
        fidelity = {k: o["sim"] for k, o in extra.results.items()}
    ratios = suite.paper_ratios(fidelity)

    if args.trace:
        untraced, traced = reps
        try:
            lmap = layers.LayerMap(src)
            run_self = layers.fold(traced.clock.run_prof, lmap)
            setup_self = layers.fold(traced.clock.setup_prof, lmap)
            ledger = layers.ledger(run_self, traced.wall_s)
        except (layers.UnmappedModule, ValueError) as e:
            violations.append(f"layer ledger: {e!r}")
            ledger, setup_self = {}, {}
        metrics = dict(ledger)
        metrics["trace.overhead"] = traced.wall_s / untraced.wall_s
        metrics["raid.setup_s"] = setup_self.get("raid", 0.0)
        metrics.update(load_metrics(untraced))
        metrics["sim.events_per_s"] = metrics["sim.events"] / untraced.wall_s
        metrics.update({f"paper.{k}": v for k, v in ratios.items()})
    else:
        host = {
            "wall_s": best_of([r.point_wall for r in reps]),
            "setup_s": best_of(setups),
        }
        metrics = {k: v * speed.scale for k, v in host.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["paper_err"] = suite.paper_err(ratios)
    units = declared_units(root, bool(args.trace))
    if set(metrics) != set(units):
        violations.append(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    problems = gate.verdict([r.digest for r in reps], violations, metrics)
    detail = {
        "sim_digest": reps[0].digest,
        "reps": len(reps),
        "wall_s": [r.wall_s for r in reps],
        "setup_s": [r.setup_s for r in reps],
        "paper_ratios": ratios,
        "problems": problems,
    }
    if not args.trace:
        detail["host"] = host
        detail["ref_loop_min_s"] = min(speed.samples)
        detail["ref_loop_samples"] = len(speed.samples)
    print(json.dumps({"detail": detail}), flush=True)
    for p in problems:
        print(f"perfbench: INCORRECT: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.issued for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
