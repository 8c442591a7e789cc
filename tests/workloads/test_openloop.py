"""Open-loop latency workload."""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster.cluster import build_cluster
from repro.workloads.openloop import LatencyResult, OpenLoopWorkload
from tests.conftest import small_config


def make(arch="raidx", **kw):
    cluster = build_cluster(small_config(n=4), architecture=arch)
    kw.setdefault("rate_ops_per_s", 200)
    kw.setdefault("duration_s", 0.2)
    return OpenLoopWorkload(cluster, **kw)


def test_all_requests_complete():
    wl = make(exact_latencies=True)
    r = wl.run()
    assert r.completed == len(r.latencies)
    assert r.completed > 10  # ~40 expected at 200 ops/s x 0.2 s
    assert r.failed == 0
    assert all(lat > 0 for lat in r.latencies)
    assert len(r.histogram) == r.completed


def test_histogram_mode_is_default():
    r = make().run()
    assert r.latencies is None  # exact list only behind the flag
    assert len(r.histogram) == r.completed > 0


def test_rate_is_respected_roughly():
    r = make(rate_ops_per_s=500, duration_s=0.4).run()
    # Poisson with mean 200 arrivals; allow generous slack.
    assert 100 < r.completed < 320


def test_latency_stats():
    r = make(exact_latencies=True).run()
    assert r.mean_latency() > 0
    assert r.p99_latency() >= r.p95_latency()
    assert r.achieved_ops_per_s > 0
    # Histogram quantiles stay within the bucket growth factor of exact.
    exact_p95 = float(np.percentile(r.latencies, 95))
    assert r.p95_latency() == pytest.approx(exact_p95, rel=0.15)
    assert r.mean_latency() == pytest.approx(
        float(np.mean(r.latencies)), rel=1e-12
    )


def test_saturation_flag():
    calm = make(rate_ops_per_s=50, duration_s=0.3).run()
    assert not calm.saturated
    assert calm.drain_s <= 0.25 * calm.window_s
    stormy = make(rate_ops_per_s=5000, duration_s=0.2).run()
    assert stormy.saturated
    assert stormy.drain_s > 0.25 * stormy.window_s
    assert stormy.mean_latency() > calm.mean_latency()


def test_mixed_op_stream():
    wl = make(op="mixed", read_fraction=0.5)
    r = wl.run()
    assert r.completed > 0


def test_reads_supported():
    r = make(op="read").run()
    assert r.completed > 0


def test_validation():
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    with pytest.raises(ValueError):
        OpenLoopWorkload(cluster, rate_ops_per_s=0)
    with pytest.raises(ValueError):
        OpenLoopWorkload(cluster, rate_ops_per_s=10, duration_s=0)
    with pytest.raises(ValueError):
        OpenLoopWorkload(cluster, rate_ops_per_s=10, op="erase")
    with pytest.raises(ValueError):
        OpenLoopWorkload(cluster, rate_ops_per_s=10, scenario="weekly")
    with pytest.raises(ValueError):
        OpenLoopWorkload(cluster, rate_ops_per_s=10, placement="remote")
    with pytest.raises(ValueError):
        OpenLoopWorkload(cluster, rate_ops_per_s=10, n_requests=0)
    with pytest.raises(ValueError):
        OpenLoopWorkload(
            cluster, rate_ops_per_s=10, diurnal_amplitude=1.5
        )


@pytest.mark.parametrize("read_fraction", [1.5, -0.2])
def test_read_fraction_outside_unit_interval_is_rejected(read_fraction):
    # Out-of-range fractions used to run silently as all-read/all-write.
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    with pytest.raises(ValueError, match="read_fraction"):
        OpenLoopWorkload(
            cluster, rate_ops_per_s=10, op="mixed",
            read_fraction=read_fraction,
        )


@pytest.mark.parametrize("op_size", [0, -5])
def test_nonpositive_op_size_is_rejected(op_size):
    # 0 used to issue zero-length requests; -5 failed deep in the
    # address layer instead of at construction.
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    with pytest.raises(ValueError, match="op_size"):
        OpenLoopWorkload(cluster, rate_ops_per_s=10, op_size=op_size)


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the test if the block runs past ``seconds``:
    a contract hole that hangs the run fails instead of stalling."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


NAN = float("nan")


@pytest.mark.parametrize(
    "kwargs, error",
    [
        # NaN passed the ``<= 0`` test: every request ran at t~0.
        ({"rate_ops_per_s": NAN}, ValueError),
        ({"rate_ops_per_s": math.inf}, ValueError),
        ({"rate_ops_per_s": "10"}, TypeError),
        # Accepted, and failed only inside run().
        ({"duration_s": NAN}, ValueError),
        ({"n_requests": 2.5, "duration_s": None}, TypeError),
        ({"op_size": 1000.5}, TypeError),
        # 0 silently became the default region; -5 ran every request
        # on block 0.
        ({"region_bytes": 0}, ValueError),
        ({"region_bytes": -5}, ValueError),
        ({"region_bytes": 4096.5}, TypeError),
        # Ran, with NaN Zipf weights.
        ({"zipf_s": NAN, "scenario": "zipf"}, ValueError),
        ({"diurnal_period_s": -1.0, "scenario": "diurnal"}, ValueError),
    ],
    ids=[
        "rate-nan", "rate-inf", "rate-str", "duration-nan",
        "n_requests-fraction", "op_size-fraction", "region-zero",
        "region-negative", "region-fraction", "zipf_s-nan",
        "diurnal_period-negative",
    ],
)
def test_contract_is_checked_at_construction(kwargs, error):
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    with pytest.raises(error):
        OpenLoopWorkload(cluster, **{"rate_ops_per_s": 10, **kwargs})


def test_nan_diurnal_period_is_rejected_before_it_can_hang():
    # It used to be accepted, and the arrival thinning loop then never
    # kept a request, so run() never returned.
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    with _deadline(20):
        with pytest.raises(ValueError, match="diurnal_period_s"):
            OpenLoopWorkload(
                cluster, rate_ops_per_s=10, duration_s=None, n_requests=20,
                scenario="diurnal", diurnal_period_s=NAN,
            ).run()


def test_an_explicit_region_is_honoured():
    bs = build_cluster(small_config(n=4), architecture="raidx").storage.block_size
    wl = make(region_bytes=5 * bs, n_requests=200, duration_s=None)
    assert wl.n_blocks == 4
    assert wl.run().completed == 200


@pytest.mark.parametrize("read_fraction", [0.0, 1.0])
def test_read_fraction_bounds_are_accepted(read_fraction):
    r = make(op="mixed", read_fraction=read_fraction, n_requests=20,
             duration_s=None).run()
    assert r.completed == 20 and r.failed == 0


def test_op_size_above_block_size_is_clamped():
    bs = build_cluster(small_config(n=4), architecture="raidx").storage.block_size
    one = make(op_size=bs, n_requests=20, duration_s=None).run()
    four = make(op_size=4 * bs, n_requests=20, duration_s=None).run()
    assert four.completed == 20
    assert four.histogram.to_payload() == one.histogram.to_payload()


def test_deterministic_with_seed():
    a = make(seed=7, exact_latencies=True).run()
    b = make(seed=7, exact_latencies=True).run()
    assert a.completed == b.completed
    assert a.latencies == b.latencies


@pytest.mark.parametrize("scenario", ["poisson", "zipf", "diurnal"])
def test_arrival_scenarios_deterministic(scenario):
    a = make(scenario=scenario, seed=3, exact_latencies=True).run()
    b = make(scenario=scenario, seed=3, exact_latencies=True).run()
    assert a.completed == b.completed > 0
    assert a.latencies == b.latencies
    assert a.histogram.to_payload() == b.histogram.to_payload()


def test_zipf_concentrates_accesses():
    # A strong hot-spot revisits far fewer distinct blocks than uniform.
    uni = make(scenario="poisson", rate_ops_per_s=2000, seed=5)
    hot = make(
        scenario="zipf", zipf_s=2.0, rate_ops_per_s=2000, seed=5
    )
    u = uni._blocks(2000)
    z = hot._blocks(2000)
    assert len(np.unique(z)) < 0.5 * len(np.unique(u))


def test_diurnal_rate_ramps():
    wl = make(scenario="diurnal", rate_ops_per_s=4000, duration_s=1.0,
              diurnal_amplitude=1.0)
    times = wl._arrival_times()
    # Peak at t=0.25 (sin max), trough at t=0.75 (rate ~0).
    peak = np.sum((times > 0.15) & (times < 0.35))
    trough = np.sum((times > 0.65) & (times < 0.85))
    assert peak > 4 * max(1, trough)


def test_n_requests_mode_exact_count():
    wl = make(n_requests=37, duration_s=None)
    r = wl.run()
    assert r.completed == 37
    assert r.window_s > 0  # last arrival time stands in for the window
    assert r.duration_s >= r.window_s


def test_local_placement_is_all_local():
    cluster = build_cluster(small_config(n=4), architecture="raidx")
    wl = OpenLoopWorkload(
        cluster, rate_ops_per_s=400, duration_s=0.2, op="read",
        placement="local",
    )
    r = wl.run()
    assert r.completed > 0
    assert cluster.transport.stats.remote_block_ops == 0


def test_empty_result_statistics():
    r = LatencyResult(offered_ops_per_s=10, completed=0, duration_s=1.0)
    assert math.isnan(r.mean_latency())
    assert math.isnan(r.p95_latency())
    assert math.isnan(r.p99_latency())
    assert not r.saturated  # zero window never reports saturation


def test_zero_window_edge_case():
    # window_s == 0 (n_requests mode with one instant arrival) must not
    # divide by zero or claim saturation.
    r = LatencyResult(
        offered_ops_per_s=10, completed=1, duration_s=0.5, window_s=0.0
    )
    assert r.drain_s == 0.5
    assert not r.saturated


@pytest.mark.parametrize("arch", ["raidx", "nfs"])
def test_roundrobin_clients_match_client_node(arch):
    """The schedule's client map, built once per run, is
    ``client_node`` for every request index (NFS skips its server)."""
    from repro.workloads.base import client_node

    cluster = build_cluster(small_config(n=4), architecture=arch)
    wl = OpenLoopWorkload(
        cluster, rate_ops_per_s=2000, n_requests=11, op="read"
    )
    clients = wl._generate()[3]
    assert clients == [client_node(cluster, i) for i in range(11)]
    if arch == "nfs":
        assert cluster.storage.server not in clients
