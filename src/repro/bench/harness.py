"""Generic experiment runner: parameter sweeps with tabular results."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.report import render_table
from repro.bench.cache import SweepCache, resolve as _resolve_cache

#: Chunks handed to each pool worker per map: a handful per worker
#: balances IPC batching against tail imbalance from uneven points.
_CHUNKS_PER_WORKER = 4


@dataclass
class ExperimentResult:
    """Rows of (params, metrics) from one sweep."""

    name: str
    param_names: List[str]
    metric_names: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, params: Dict[str, Any], metrics: Dict[str, Any]) -> None:
        overlap = set(params) & set(metrics)
        if overlap:
            raise ValueError(f"param/metric name clash: {sorted(overlap)}")
        self.rows.append({**params, **metrics})

    def column(self, name: str) -> List[Any]:
        return [r[name] for r in self.rows]

    def filter(self, **match) -> "ExperimentResult":
        """Rows matching all the given param values."""
        out = ExperimentResult(
            self.name, self.param_names, self.metric_names
        )
        out.rows = [
            r
            for r in self.rows
            if all(r.get(k) == v for k, v in match.items())
        ]
        return out

    def pivot(self, row_key: str, col_key: str, value: str) -> Dict:
        """{row_value: {col_value: metric}} for quick series extraction."""
        out: Dict[Any, Dict[Any, Any]] = {}
        for r in self.rows:
            out.setdefault(r[row_key], {})[r[col_key]] = r[value]
        return out

    def render(self, title: str = "") -> str:
        headers = self.param_names + self.metric_names
        rows = [[r.get(h) for h in headers] for r in self.rows]
        return render_table(headers, rows, title=title or self.name)


def _call_point(fn: Callable[..., Dict[str, Any]], point: Dict[str, Any]):
    """Top-level trampoline so worker processes can unpickle the call."""
    return fn(**point)


def plan_shards(
    points: List[Dict[str, Any]],
    replicas: int,
    seed_key: str,
    base_seed: int,
) -> List[Dict[str, Any]]:
    """Expand grid points into per-replica shard points.

    Each grid point (an independent cluster instance) becomes
    ``replicas`` shards differing only in ``seed_key`` — independent
    arrival-seed streams whose results are reduced back into one row.
    Shard order is grid-major, replica-minor, so shard ``i`` of point
    ``p`` is always ``p * replicas + i`` regardless of worker count.
    """
    return [
        {**p, seed_key: base_seed + r}
        for p in points
        for r in range(replicas)
    ]


def _run_points(
    name: str,
    fn: Callable[..., Dict[str, Any]],
    points: List[Dict[str, Any]],
    workers: Optional[int],
    sc: Optional[SweepCache],
) -> List[Dict[str, Any]]:
    """Compute metrics for each point, in order, via cache then pool."""
    rows: Dict[int, Dict[str, Any]] = {}
    keys: List[str] = []
    if sc is not None:
        keys = [sc.key(name, fn, p) for p in points]
        for i, k in enumerate(keys):
            hit = sc.get(k)
            if hit is not None:
                rows[i] = hit
    misses = [i for i in range(len(points)) if i not in rows]

    if misses:
        miss_points = [points[i] for i in misses]
        if workers is not None and workers > 1:
            # The pool loads only for a parallel sweep.
            from concurrent.futures import ProcessPoolExecutor

            chunksize = -(-len(miss_points) // (workers * _CHUNKS_PER_WORKER))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                computed = list(
                    pool.map(
                        _call_point,
                        itertools.repeat(fn),
                        miss_points,
                        chunksize=max(1, chunksize),
                    )
                )
        else:
            computed = [fn(**p) for p in miss_points]
        for i, metrics in zip(misses, computed):
            rows[i] = metrics
            if sc is not None:
                sc.put(keys[i], name, points[i], metrics)
    return [rows[i] for i in range(len(points))]


def sweep(
    name: str,
    fn: Callable[..., Dict[str, Any]],
    grid: Dict[str, Sequence[Any]],
    workers: Optional[int] = None,
    cache: Union[None, bool, SweepCache] = None,
    replicas: int = 1,
    seed_key: str = "seed",
    base_seed: int = 0,
    reduce: Optional[
        Callable[[List[Dict[str, Any]]], Dict[str, Any]]
    ] = None,
) -> ExperimentResult:
    """Run ``fn(**point)`` over the cartesian product of ``grid``.

    ``fn`` returns a metrics dict; metric names are taken from the first
    point's result, and every later point must return exactly the same
    keys — a mismatch raises instead of leaving silent ``None`` cells in
    the rendered table.

    With ``workers`` > 1 the points run concurrently in a process pool
    (each simulation point is independent; the sim itself is serial),
    submitted in chunks to amortize IPC overhead.  Rows are always
    appended in grid order, so the result — including every metric
    value — is identical to a serial run.  ``fn`` must be picklable (a
    module-level function) in that case.

    ``replicas`` > 1 shards every grid point into that many independent
    runs differing only in ``fn``'s ``seed_key`` argument (seeds
    ``base_seed .. base_seed+replicas-1``, see :func:`plan_shards`);
    ``reduce`` folds the per-shard metric dicts (in seed order) back
    into the point's single row.  Shards are cached and pooled
    individually, so a resumed sweep re-simulates only missing shards
    and a replica count bump only the new seeds.

    ``cache=True`` (or a :class:`~repro.bench.cache.SweepCache`) skips
    any point whose row is already stored under a matching
    (point, experiment, source-fingerprint) key and simulates only the
    misses; see :mod:`repro.bench.cache`.  Default: no caching.
    """
    names = list(grid)
    points = [
        dict(zip(names, values))
        for values in itertools.product(*(grid[k] for k in names))
    ]
    if not points:
        raise ValueError("empty parameter grid")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if replicas > 1:
        if reduce is None:
            raise ValueError("replicas > 1 needs a reduce function")
        if any(seed_key in p for p in points):
            raise ValueError(
                f"grid already contains the seed key {seed_key!r}"
            )

    sc = _resolve_cache(cache)
    shard_points = (
        plan_shards(points, replicas, seed_key, base_seed)
        if replicas > 1
        else points
    )
    shard_rows = _run_points(name, fn, shard_points, workers, sc)
    if replicas > 1:
        row_list = [
            reduce(shard_rows[i * replicas: (i + 1) * replicas])
            for i in range(len(points))
        ]
    else:
        row_list = shard_rows

    result: ExperimentResult | None = None
    for point, metrics in zip(points, row_list):
        if result is None:
            result = ExperimentResult(name, names, list(metrics))
        elif set(metrics) != set(result.metric_names):
            raise ValueError(
                f"sweep {name!r}: point {point} returned metric keys "
                f"{sorted(metrics)}, expected "
                f"{sorted(result.metric_names)}"
            )
        result.add(point, metrics)
    return result
