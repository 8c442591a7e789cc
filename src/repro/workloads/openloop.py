"""Open-loop workload: arrival-process scenarios, response-time stats.

The barrier workloads (Fig. 5) measure *bandwidth*; this one measures
*latency under offered load*: requests arrive at rate λ regardless of
completions (open loop), each timed individually.  Sweeping λ produces
the classic response-time hockey-stick and locates each architecture's
saturation point.

Built for million-request scale sweeps:

* the whole arrival schedule (times, ops, offsets, clients) is
  precomputed with vectorized numpy before the simulation starts — the
  hot loop is one driver process issuing pre-baked requests;
* completions are recorded by a small callback object per request
  instead of a timing process per request;
* latencies land in a :class:`~repro.obs.metrics.LogHistogram` — memory
  stays O(buckets) at any request count.  ``exact_latencies=True``
  additionally keeps the raw list for small runs.

Three first-class arrival scenarios (``scenario=``):

``poisson``
    Homogeneous Poisson arrivals, uniform random blocks (the classic
    open-loop baseline).
``zipf``
    Poisson arrivals; block choice follows a Zipf(``zipf_s``) hot-spot
    over the region's block space (a seeded permutation scatters the
    hot blocks across disks).
``diurnal``
    Uniform blocks, but the arrival rate ramps sinusoidally between
    ``rate·(1±diurnal_amplitude)`` over ``diurnal_period_s`` (default:
    one full cycle per window), via thinning of a homogeneous stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
from math import isfinite
from numbers import Real
from operator import index
from typing import TYPE_CHECKING, List, Optional

from repro.obs.metrics import LogHistogram
from repro.units import KiB
from repro.workloads.base import client_pool

if TYPE_CHECKING:
    import numpy as np

_SCENARIOS = ("poisson", "zipf", "diurnal")


def _positive(name: str, value, integral: bool = False) -> None:
    """Check a size or rate argument: an integer (``integral``) or a real
    number, else :class:`TypeError`; positive and finite, else
    :class:`ValueError` (NaN included)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number, not {value!r}")
    if integral:
        try:
            index(value)
        except TypeError:
            raise TypeError(
                f"{name} must be an integer, not {value!r}"
            ) from None
    if not (isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, not {value!r}")


@dataclass
class LatencyResult:
    """Response-time statistics from one open-loop run."""

    offered_ops_per_s: float
    completed: int
    #: Total time including draining the backlog after arrivals stop.
    duration_s: float
    #: The arrival window itself.
    window_s: float = 0.0
    #: Requests that errored (planner/typed failures); not timed.
    failed: int = 0
    #: Log-bucketed latency distribution (always populated).
    histogram: LogHistogram = field(default_factory=LogHistogram)
    #: Raw per-request latencies — only with ``exact_latencies=True``.
    latencies: Optional[List[float]] = None

    @property
    def achieved_ops_per_s(self) -> float:
        if self.duration_s <= 0:
            return float("nan")
        return self.completed / self.duration_s

    @property
    def drain_s(self) -> float:
        """How long completions kept trickling after the last arrival."""
        return max(0.0, self.duration_s - self.window_s)

    def mean_latency(self) -> float:
        return self.histogram.mean  # exact: moments tracked alongside

    def p95_latency(self) -> float:
        return self.histogram.percentile(95)

    def p99_latency(self) -> float:
        return self.histogram.percentile(99)

    @property
    def saturated(self) -> bool:
        """True when the backlog at window end took a substantial extra
        drain — i.e. completions fell behind arrivals."""
        if self.window_s <= 0:
            return False
        return self.drain_s > 0.25 * self.window_s


class _Completion:
    """Per-request completion hook: time it, count it, defuse failures."""

    __slots__ = ("workload", "start")

    def __init__(self, workload: "OpenLoopWorkload", start: float):
        self.workload = workload
        self.start = start

    def __call__(self, event) -> None:
        wl = self.workload
        if not event._ok:
            event.defused()
            wl._failed += 1
        else:
            lat = wl.env._now - self.start
            wl._hist.add(lat)
            if wl._exact is not None:
                wl._exact.append(lat)
            wl._completed += 1
        if wl._done is not None and wl._completed + wl._failed >= wl._total:
            wl._done.succeed()


class OpenLoopWorkload:
    """A seeded open-loop request stream against the cluster storage.

    Requests are ``op_size`` accesses at block-aligned offsets within
    ``region_bytes``.  The run length is either a time window
    (``duration_s``, arrivals strictly inside it) or an exact request
    count (``n_requests``); ``placement`` maps each request to a client
    node — ``"roundrobin"`` cycles the nodes, ``"local"`` picks the
    owner of the target block's primary disk (every request is a local
    hit, the regime the node fast-forward collapses).

    The contract is checked here, before anything is built: rates,
    durations, ``zipf_s`` and ``diurnal_period_s`` are positive finite
    numbers; ``n_requests``, ``op_size`` and ``region_bytes`` positive
    integers; ``read_fraction`` (the read share of ``op="mixed"``,
    default 0.5) and ``diurnal_amplitude`` within [0, 1].  A bad value
    raises :class:`ValueError`, a non-number or a fractional count
    :class:`TypeError`.  A request never spans blocks: an ``op_size``
    above the storage block size is clamped to it when requests are
    issued.
    """

    def __init__(
        self,
        cluster,
        rate_ops_per_s: float,
        duration_s: Optional[float] = 1.0,
        op: str = "write",
        op_size: int = 32 * KiB,
        read_fraction: Optional[float] = None,
        region_bytes: Optional[int] = None,
        seed: int = 42,
        n_requests: Optional[int] = None,
        scenario: str = "poisson",
        zipf_s: float = 1.2,
        diurnal_amplitude: float = 0.8,
        diurnal_period_s: Optional[float] = None,
        placement: str = "roundrobin",
        exact_latencies: bool = False,
    ):
        _positive("rate_ops_per_s", rate_ops_per_s)
        if n_requests is None:
            if duration_s is None:
                raise ValueError("give duration_s or n_requests")
            _positive("duration_s", duration_s)
        else:
            _positive("n_requests", n_requests, integral=True)
        if op not in ("read", "write", "mixed"):
            raise ValueError(f"bad op {op!r}")
        if scenario not in _SCENARIOS:
            raise ValueError(
                f"bad scenario {scenario!r}; choose from {_SCENARIOS}"
            )
        if placement not in ("roundrobin", "local"):
            raise ValueError(f"bad placement {placement!r}")
        if not 0.0 <= diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be within [0, 1]")
        _positive("op_size", op_size, integral=True)
        if region_bytes is not None:
            _positive("region_bytes", region_bytes, integral=True)
        _positive("zipf_s", zipf_s)
        if diurnal_period_s is not None:
            _positive("diurnal_period_s", diurnal_period_s)
        if read_fraction is not None and not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be within [0, 1]")
        if op == "mixed" and read_fraction is None:
            read_fraction = 0.5
        self.cluster = cluster
        self.env = cluster.env
        self.rate = rate_ops_per_s
        self.duration = duration_s if n_requests is None else None
        self.n_requests = n_requests
        self.op = op
        self.op_size = op_size
        self.read_fraction = read_fraction
        self.scenario = scenario
        self.zipf_s = zipf_s
        self.diurnal_amplitude = diurnal_amplitude
        self.diurnal_period = diurnal_period_s
        self.placement = placement
        storage = cluster.storage
        region = (
            min(storage.capacity, 512_000_000)
            if region_bytes is None
            else region_bytes
        )
        self.n_blocks = max(1, region // storage.block_size - 1)
        layout = getattr(storage, "layout", None)
        if layout is not None:
            # The logical address space may end mid-block on the last
            # disk; the layout's block count is the true upper bound.
            self.n_blocks = min(self.n_blocks, layout.data_blocks)
        # numpy loads with the first open-loop workload, not with this
        # module, which every `repro.workloads` import brings in.
        import numpy as np

        self._rng = np.random.default_rng(seed)
        self._hist = LogHistogram("openloop_latency")
        self._exact: Optional[List[float]] = [] if exact_latencies else None
        self._completed = 0
        self._failed = 0
        self._total = 0
        self._done = None

    # -- schedule generation (vectorized, before the sim runs) -------------
    def _arrival_times(self) -> np.ndarray:
        """Request arrival offsets from the run start, ascending."""
        import numpy as np

        rng = self._rng
        rate = self.rate
        if self.scenario != "diurnal":
            if self.n_requests is not None:
                return np.cumsum(
                    rng.exponential(1.0 / rate, self.n_requests)
                )
            times = np.empty(0)
            chunk = max(64, int(rate * self.duration * 1.2))
            last = 0.0
            while last < self.duration:
                gaps = rng.exponential(1.0 / rate, chunk)
                new = last + np.cumsum(gaps)
                times = np.concatenate([times, new])
                last = float(times[-1])
            return times[times < self.duration]
        # Diurnal ramp: thin a homogeneous stream at the peak rate.
        amp = self.diurnal_amplitude
        peak = rate * (1.0 + amp)
        if self.n_requests is not None:
            period = self.diurnal_period or (self.n_requests / rate)
            accepted = np.empty(0)
            last = 0.0
            while len(accepted) < self.n_requests:
                gaps = rng.exponential(
                    1.0 / peak, max(64, self.n_requests)
                )
                cand = last + np.cumsum(gaps)
                last = float(cand[-1])
                lam = rate * (
                    1.0 + amp * np.sin(2.0 * np.pi * cand / period)
                )
                keep = rng.random(len(cand)) * peak < lam
                accepted = np.concatenate([accepted, cand[keep]])
            return accepted[: self.n_requests]
        period = self.diurnal_period or self.duration
        times = np.empty(0)
        chunk = max(64, int(peak * self.duration * 1.2))
        last = 0.0
        while last < self.duration:
            gaps = rng.exponential(1.0 / peak, chunk)
            new = last + np.cumsum(gaps)
            times = np.concatenate([times, new])
            last = float(times[-1])
        times = times[times < self.duration]
        lam = rate * (1.0 + amp * np.sin(2.0 * np.pi * times / period))
        return times[self._rng.random(len(times)) * peak < lam]

    def _blocks(self, n: int) -> np.ndarray:
        """Target block per request (uniform or Zipf hot-spot)."""
        import numpy as np

        rng = self._rng
        if self.scenario != "zipf":
            return rng.integers(0, self.n_blocks, size=n)
        # Zipf over ranks, then a seeded permutation scatters the hot
        # ranks across the block space (and hence across disks).
        weights = 1.0 / np.arange(1, self.n_blocks + 1) ** self.zipf_s
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        ranks = np.searchsorted(cdf, rng.random(n), side="left")
        return rng.permutation(self.n_blocks)[ranks]

    def _generate(self):
        """Bake the full request schedule as plain Python lists."""
        import numpy as np

        storage = self.cluster.storage
        bs = storage.block_size
        times = self._arrival_times()
        n = len(times)
        blocks = self._blocks(n)
        if self.op == "mixed":
            is_read = self._rng.random(n) < self.read_fraction
            ops = ["read" if r else "write" for r in is_read]
        else:
            ops = [self.op] * n
        if self.placement == "local":
            n_nodes = self.cluster.n_nodes
            layout = getattr(storage, "layout", None)
            if layout is None:
                raise ValueError(
                    "placement='local' needs a block layout "
                    "(not available on this storage system)"
                )
            # The owner of each block's primary disk, for all blocks at
            # once: placement repeats with the layout's disk cycle.
            cycle = np.array(layout.data_disk_cycle()) % n_nodes
            clients = cycle[blocks % len(cycle)].tolist()
        else:
            pool = itertools.cycle(client_pool(self.cluster))
            clients = list(itertools.islice(pool, n))
        offsets = (blocks * bs).tolist()
        return times.tolist(), ops, offsets, clients

    # -- driver ------------------------------------------------------------
    def _driver(self, times, ops, offsets, clients):
        env = self.env
        base = env.now
        submit = self.cluster.storage.submit
        nbytes = min(self.op_size, self.cluster.storage.block_size)
        for i in range(len(times)):
            delay = base + times[i] - env._now
            if delay > 0:
                yield delay
            ev = submit(clients[i], ops[i], offsets[i], nbytes)
            ev.callbacks.append(_Completion(self, env._now))
        if self._completed + self._failed < self._total:
            self._done = env.event()
            yield self._done
            self._done = None

    def run(self) -> LatencyResult:
        """Issue the precomputed schedule; wait for stragglers."""
        start = self.env.now
        times, ops, offsets, clients = self._generate()
        self._total = len(times)
        if self._total:
            self.env.run(self.env.process(
                self._driver(times, ops, offsets, clients)
            ))
        window = (
            self.duration
            if self.duration is not None
            else (times[-1] if times else 0.0)
        )
        return LatencyResult(
            offered_ops_per_s=self.rate,
            completed=self._completed,
            duration_s=self.env.now - start,
            window_s=window,
            failed=self._failed,
            histogram=self._hist,
            latencies=list(self._exact) if self._exact is not None else None,
        )
