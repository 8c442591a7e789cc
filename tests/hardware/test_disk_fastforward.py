"""The callback disk server against the generator serve loop's goldens.

The disk is served by a callback-driven closed-form server (the
analytic fast-forward, DESIGN §6.13).  It replaced a phase-by-phase
generator serve loop, and ``golden_disk.json`` holds that loop's
signatures, captured before it was deleted: completion floats, the full
span stream (order included), stats and mid-run queue depths, under
bursty arrivals, priority mixes, every scheduler policy, and failures
landing while requests are queued and in flight.  These tests run the
same seeded scenarios and require byte-identical signatures.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.config import DiskParams
from repro.hardware.disk import Disk
from repro.io.scheduler import FifoScheduler, LookScheduler, SstfScheduler
from repro.obs import runtime as obs_runtime
from repro.sim.core import Environment
from repro.units import MB

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_disk.json").read_text()
)

_SCHEDULERS = {
    "fifo": FifoScheduler,
    "sstf": SstfScheduler,
    "look": LookScheduler,
}


def _hex(v):
    return v.hex() if isinstance(v, float) else v


def _span_stream(tracer):
    """(count, sha256) of every span, order and float bits included."""
    spans = [
        [s.kind, s.track, _hex(s.start), _hex(s.end), s.trace,
         {k: _hex(v) for k, v in sorted((s.args or {}).items())}]
        for s in tracer.spans
    ]
    return len(spans), hashlib.sha256(
        json.dumps(spans, sort_keys=True).encode()
    ).hexdigest()


def _run_scenario(scheduler, chaos):
    env = Environment()
    results = []
    depths = []
    with obs_runtime.tracing() as tracer:
        disk = Disk(
            env,
            DiskParams(),
            scheduler=_SCHEDULERS[scheduler](),
        )
        cap = disk.capacity

        def outcome(i):
            def cb(event):
                if not event._ok:
                    event.defused()
                results.append([i, event._ok, _hex(env.now)])

            return cb

        def driver():
            rnd = random.Random(0xD15C)
            seq_base = 0
            idx = 0
            for step in range(40):
                for j in range(1 + step % 3):  # bursts of 1..3
                    if (step + j) % 4 == 0:
                        # Sequential run continuation.
                        offset = seq_base
                        seq_base += 16384
                    else:
                        offset = rnd.randrange(0, (cap - 65536) // 4096)
                        offset *= 4096
                        seq_base = offset + 16384
                    ev = disk.submit(
                        "read" if (step + j) % 3 else "write",
                        offset,
                        4096 * (1 + (step + j) % 4),
                        priority=1 if (step + j) % 5 == 0 else 0,
                        trace=idx,
                    )
                    ev.callbacks.append(outcome(idx))
                    idx += 1
                # Gaps: sometimes shorter than a service interval, so
                # arrivals land mid-batch; sometimes long enough to
                # drain the queue and park the server.
                yield rnd.choice((0.0002, 0.0015, 0.02))

        def sampler():
            for _ in range(120):
                depths.append([_hex(env.now), disk.queue_depth])
                yield 0.004

        def chaos_proc():
            yield 0.05
            disk.fail()
            yield 0.03
            disk.repair()
            yield 0.06
            disk.fail()
            yield 0.001
            disk.repair()

        env.process(driver())
        env.process(sampler())
        if chaos:
            env.process(chaos_proc())
        env.run()

        n_spans, span_sha = _span_stream(tracer)
        st = disk.stats
        return {
            "final_time": _hex(env.now),
            "results": results,
            "n_spans": n_spans,
            "span_sha": span_sha,
            "depths": depths,
            "stats": {
                "reads": st.reads,
                "writes": st.writes,
                "bytes_read": _hex(st.bytes_read),
                "bytes_written": _hex(st.bytes_written),
                "busy": _hex(st.busy_time),
                "busy_fg": _hex(st.busy_time_foreground),
                "busy_bg": _hex(st.busy_time_background),
                "seek": _hex(st.seek_time),
                "rot": _hex(st.rotation_time),
                "xfer": _hex(st.transfer_time),
                "seq_hits": st.sequential_hits,
            },
            "max_depth_seen": disk.scheduler.max_depth_seen,
        }


def _run_raced_arrivals(scheduler):
    """Arrivals that land while the only queued request is in service.

    At its completion the scheduler is empty with arrivals pending: the
    server grants the oldest at once and drains the rest behind it.  The
    bursty scenarios above never reach that state (their queue is never
    down to the request in service when arrivals land).
    """
    env = Environment()
    results = []
    with obs_runtime.tracing() as tracer:
        disk = Disk(env, DiskParams(), scheduler=_SCHEDULERS[scheduler]())

        def submit(i, offset):
            ev = disk.submit("read", offset, 8192, trace=i)
            ev.callbacks.append(
                lambda _, i=i: results.append([i, _hex(env.now)])
            )

        def driver():
            submit(0, 3_000 * MB)
            yield 0.001
            for i, offset in enumerate((6_000, 1, 3_500, 9_000), 1):
                submit(i, offset * MB)

        env.process(driver())
        env.run()
    n_spans, span_sha = _span_stream(tracer)
    return {
        "final_time": _hex(env.now),
        "results": results,
        "n_spans": n_spans,
        "span_sha": span_sha,
    }


@pytest.mark.parametrize("scheduler", sorted(_SCHEDULERS))
@pytest.mark.parametrize("chaos", [False, True], ids=["healthy", "chaos"])
def test_fast_forward_matches_phase_path(scheduler, chaos):
    got = _run_scenario(scheduler, chaos)
    want = GOLDEN["scenarios"][
        f"{scheduler}-{'chaos' if chaos else 'healthy'}"
    ]
    # The cheap discriminators first, for a readable failure.
    assert got["final_time"] == want["final_time"]
    assert got["n_spans"] == want["n_spans"]
    assert got["stats"] == want["stats"]
    assert got == want
    # The scenario actually exercised what it claims to.
    assert got["n_spans"] > 100
    assert got["stats"]["seq_hits"] > 0
    assert got["stats"]["busy_bg"] != 0.0
    if chaos:
        assert any(not ok for _, ok, _ in got["results"])
        assert any(ok for _, ok, _ in got["results"])


@pytest.mark.parametrize("scheduler", sorted(_SCHEDULERS))
def test_raced_arrivals_match_phase_path(scheduler):
    assert _run_raced_arrivals(scheduler) == GOLDEN["raced_arrivals"][
        scheduler
    ]


def test_golden_covers_every_scenario():
    assert set(GOLDEN["scenarios"]) == {
        f"{s}-{c}" for s in _SCHEDULERS for c in ("healthy", "chaos")
    }


def test_fast_forward_matches_untraced_too():
    # No tracer installed: the stats/completion bookkeeping alone.
    env = Environment()
    disk = Disk(env, DiskParams())
    done = [disk.submit("write", i * 8192, 8192) for i in range(100)]
    env.run(done[-1])
    assert GOLDEN["untraced_drain"] == {
        "final_time": _hex(env.now),
        "busy": _hex(disk.stats.busy_time),
        "seq_hits": disk.stats.sequential_hits,
    }


def test_submit_to_failed_disk_fails_fast_both_paths():
    # Both paths: the live server and the generator loop's recorded
    # outcome fail the request at submit, with nothing queued.
    env = Environment()
    disk = Disk(env, DiskParams())
    disk.fail()
    ev = disk.submit("read", 0, 4096)
    got = {
        "triggered": ev.triggered,
        "ok": ev._ok,
        "error": type(ev._value).__name__,
        "queue_depth": disk.queue_depth,
    }
    ev.defused()
    env.run()
    got["final_time"] = _hex(env.now)
    assert got == GOLDEN["failed_disk"]
