#!/usr/bin/env python3
"""A/B timing of one perfbench workload: a base revision against the
working tree, in alternating pairs.

Run from anywhere inside the repository::

    python benchmarks/ab.py --base HEAD~1 --workload scale128_read --pairs 30

The base revision is extracted with ``git archive`` into a temporary
directory (no worktree metadata is written).  Two persistent worker
processes, one per side, each import ``repro`` and perfbench's
``run.py`` and ``suite.py`` from their own tree.  Every point of the
workload then runs once on each side per pair, through that tree's
``run.run_rep``, so it is timed as the benchmark times it; the side
that goes first alternates from point to point and pair to pair, so a
phase of host slowdown lands on both sides alike.  Every point's simulated outputs (``perfbench/gate.py``'s canonical form)
must agree between the two sides; each differing field is printed, and
any difference fails the run.  Each worker also reports its own peak
resident memory (``ru_maxrss``) when its side closes; that figure is
printed and recorded, but gates nothing.

For ``wall_s`` (measured phase) and ``setup_s`` (cluster and workload
construction), each summed over the workload's points per pair, the
report gives the change's wins, both medians, the base's interquartile
range, the median of the per-pair change/base ratios, and the best-of
sums (perfbench's ``run.best_of``: each point's fastest sample, summed).
A gain is *clear* when the change wins at least nine pairs in ten and
its median beats the base's by more than the base's IQR.  The last line
of standard output is the report as JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_s", "setup_s")
#: Untimed pairs run first, so lazy imports and first-use tables are
#: paid before timing starts on both sides.
WARMUP_PAIRS = 1


# -- worker side ---------------------------------------------------------------
def worker(root: str, workload: str, seed: int, tiny: bool) -> None:
    """Serve point runs of ``root``'s tree over stdin/stdout.

    Announces the workload's point keys, then answers each line holding
    a point index with that point's timings and canonical outputs.  At
    the end of its input it reports its peak resident memory.
    """
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import gate
    import run
    import suite

    points = suite.WORKLOADS[workload](seed, tiny)
    print(json.dumps([repr(p.key) for p in points]), flush=True)
    for line in sys.stdin:
        p = points[int(line)]
        rep = run.run_rep([p], run.Clock())
        print(json.dumps({
            "setup_s": rep.setup_s,
            "wall_s": rep.wall_s,
            "out": gate.canonical(rep.results[p.key]),
            "violations": rep.violations,
        }), flush=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": peak}), flush=True)


class Side:
    """One persistent worker process over a checkout."""

    def __init__(self, name: str, root: str, args) -> None:
        self.name = name
        cmd = [
            sys.executable, os.path.abspath(__file__), "--worker", root,
            "--workload", args.workload, "--seed", str(args.seed),
        ]
        if args.tiny:
            cmd.append("--tiny")
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)  # each side imports its own tree only
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.keys: List[str] = json.loads(self._line())
        self.peak_rss_mb: Optional[float] = None

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} worker exited")
        return line

    def run(self, index: int) -> Dict:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        return json.loads(self._line())

    def close(self) -> None:
        """End the worker; keeps the peak memory it reports on exit."""
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        if line:
            self.peak_rss_mb = json.loads(line).get("peak_rss_mb")
        self.proc.wait()


# -- driver side ---------------------------------------------------------------
def diff_paths(a, b, path: str = "") -> Iterator[Tuple[str, object, object]]:
    """``(path, a, b)`` for every leaf where two canonical outputs differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            yield from diff_paths(a.get(k), b.get(k), f"{path}.{k}".lstrip("."))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff_paths(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b


def perfbench_run():
    """The working tree's ``perfbench/run.py``, under a name of its own
    (a worker imports its own tree's copy as ``run``)."""
    name = "perfbench_run"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(REPO, "perfbench", "run.py")
        )
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def quartiles(xs: List[float]) -> Tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(base: List[Dict[str, float]], change: List[Dict[str, float]]) -> Dict:
    """Pair statistics of one metric.  ``base``/``change`` hold, per
    pair, the metric's seconds per point key."""
    b = [sum(p.values()) for p in base]
    c = [sum(p.values()) for p in change]
    q1, q3 = quartiles(b)
    b_med, c_med = statistics.median(b), statistics.median(c)
    wins = sum(1 for x, y in zip(b, c) if y < x)
    best_of = perfbench_run().best_of
    return {
        "pairs": len(b),
        "wins": wins,
        "base_median": b_med,
        "change_median": c_med,
        "base_iqr": q3 - q1,
        "median_ratio": statistics.median(y / x for x, y in zip(b, c)),
        "base_best_of": best_of(base),
        "change_best_of": best_of(change),
        "clear_gain": wins >= 0.9 * len(b) and b_med - c_med > q3 - q1,
    }


def compare(base_root: str, change_root: str, args) -> Dict:
    """Run the alternating pairs; returns the report."""
    sides = [Side("base", base_root, args), Side("change", change_root, args)]
    try:
        keys = sides[0].keys
        if sides[1].keys != keys:
            raise SystemExit("ab: the two trees define different points")
        samples = {s.name: {m: [] for m in METRICS} for s in sides}
        diffs: Dict[str, Tuple] = {}
        violations: List[str] = []
        for pair in range(WARMUP_PAIRS + args.pairs):
            per = {s.name: {m: {} for m in METRICS} for s in sides}
            for i, key in enumerate(keys):
                order = sides if (pair + i) % 2 == 0 else sides[::-1]
                res = {s.name: s.run(i) for s in order}
                for name, r in res.items():
                    violations += [f"{name}: {v}" for v in r["violations"]]
                    for m in METRICS:
                        per[name][m][key] = r[m]
                for path, a, b in diff_paths(
                    res["base"]["out"], res["change"]["out"]
                ):
                    diffs.setdefault(f"{key}.{path}", (a, b))
            if pair >= WARMUP_PAIRS:
                for name in per:
                    for m in METRICS:
                        samples[name][m].append(per[name][m])
    finally:
        for s in sides:
            s.close()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "base": args.base,
        "metrics": {
            m: summarize(samples["base"][m], samples["change"][m])
            for m in METRICS
        },
        "peak_rss_mb": {s.name: s.peak_rss_mb for s in sides},
        "sim_identical": not diffs,
        "sim_diffs": {p: list(v) for p, v in sorted(diffs.items())},
        "violations": sorted(set(violations)),
    }


def extract(rev: str, dest: str) -> None:
    """Write the files of ``rev`` into ``dest`` with ``git archive``."""
    archive = subprocess.Popen(
        ["git", "-C", REPO, "archive", "--format=tar", rev],
        stdout=subprocess.PIPE,
    )
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"ab: git archive {rev} failed")


def render(report: Dict) -> str:
    lines = [
        f"workload {report['workload']} seed {report['seed']}: "
        f"base {report['base']} vs working tree"
    ]
    for m, s in report["metrics"].items():
        lines.append(
            f"  {m:<8} wins {s['wins']}/{s['pairs']}  "
            f"median {s['base_median']:.4f} -> {s['change_median']:.4f} s  "
            f"(base IQR {s['base_iqr']:.4f})  "
            f"pair ratio {s['median_ratio']:.3f}  "
            f"best-of {s['base_best_of']:.4f} -> {s['change_best_of']:.4f} s"
            f"{'  CLEAR GAIN' if s['clear_gain'] else ''}"
        )
    peak = report.get("peak_rss_mb", {})
    if peak and None not in peak.values():
        lines.append(
            f"  peak_rss_mb {peak['base']:.1f} -> {peak['change']:.1f}  "
            f"(each worker's ru_maxrss; not gated)"
        )
    if report["sim_identical"]:
        lines.append("  simulated outputs identical on every point")
    for p, (a, b) in report["sim_diffs"].items():
        lines.append(f"  DIFF {p}: {a!r} -> {b!r}")
    for v in report["violations"]:
        lines.append(f"  VIOLATION {v}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tiny", action="store_true",
                    help="the workloads' smoke-test sizes")
    ap.add_argument("--worker", metavar="ROOT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload, args.seed, args.tiny)
        return 0
    if not args.base:
        ap.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        extract(args.base, tmp)
        report = compare(tmp, REPO, args)
    print(render(report))
    print(json.dumps(report))
    return 0 if report["sim_identical"] and not report["violations"] else 1


if __name__ == "__main__":
    sys.exit(main())
