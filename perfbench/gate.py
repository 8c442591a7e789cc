"""Correctness gate: the simulated-output digest and the run verdict.

``sim_digest`` is a sha256 over the float-hex form of every simulated
output of one repetition (counts, simulated seconds, latency histogram
and ``collect_load`` payloads, Fig. 5 rows, Andrew totals), keyed and
sorted by point, so it is independent of the order points ran in.  A
speed-only change to the simulator must leave it unchanged; within one
benchmark run it must be identical across repetitions and between the
traced and untraced repetitions.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Iterable, List


def canonical(obj: Any) -> Any:
    """A JSON-safe, exact form of nested simulated outputs: floats
    become ``float.hex`` strings, tuples lists, dict keys strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


def sim_digest(points: Dict[tuple, Dict]) -> str:
    """sha256 of every point's simulated outputs, sorted by point key."""
    body = [[list(k), canonical(points[k])] for k in sorted(points, key=repr)]
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def verdict(digests: Iterable[str], violations: List[str],
            metrics: Dict[str, float]) -> List[str]:
    """Every reason the run is incorrect (empty when it is correct).

    ``digests`` are the per-repetition digests, which must agree;
    ``violations`` come from the per-point invariant checks; every
    reported metric must be a finite number.
    """
    problems = list(violations)
    if len(set(digests)) != 1:
        problems.append("sim_digest differs between repetitions")
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite: {value!r}")
    return problems
