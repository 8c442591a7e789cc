"""Disk service-time model, sequential detection, failures, stats."""

import pytest

from repro.config import DiskParams
from repro.errors import AddressError, DiskFailedError
from repro.hardware.disk import Disk
from repro.units import KiB, MB


def make_disk(env, **kw):
    return Disk(env, DiskParams(**kw), disk_id=0)


def test_first_read_at_zero_is_sequential(env):
    d = make_disk(env)
    done = []

    def p(env):
        yield d.read(0, 32 * KiB)
        done.append(env.now)

    env.process(p(env))
    env.run()
    p_ = d.params
    expected = p_.controller_overhead_s + 32 * KiB / p_.media_rate
    assert done[0] == pytest.approx(expected)
    assert d.stats.sequential_hits == 1


def test_sequential_run_skips_seek_and_rotation(env):
    d = make_disk(env)

    def p(env):
        yield d.read(0, 32 * KiB)
        yield d.read(32 * KiB, 32 * KiB)

    env.process(p(env))
    env.run()
    assert d.stats.sequential_hits == 2
    assert d.stats.seek_time == 0
    assert d.stats.rotation_time == 0


def test_far_access_pays_seek_and_rotation(env):
    d = make_disk(env)

    def p(env):
        yield d.read(0, 32 * KiB)
        yield d.read(5_000 * MB, 32 * KiB)

    env.process(p(env))
    env.run()
    assert d.stats.seek_time > 0
    assert d.stats.rotation_time == pytest.approx(d.params.avg_rotation_s)


def test_backward_access_is_not_sequential(env):
    d = make_disk(env)

    def p(env):
        yield d.read(0, 32 * KiB)
        yield d.read(32 * KiB, 32 * KiB)  # forward, in window
        yield d.read(0, 32 * KiB)  # behind the head

    env.process(p(env))
    env.run()
    assert d.stats.sequential_hits == 2  # the backward one pays in full


def test_seek_time_monotonic_in_distance(env):
    def seek_of_first_read(offset):
        # A fresh disk's head sits at 0: the seek covers ``offset``.
        d = make_disk(env)
        env.run(d.read(offset, 4 * KiB))
        return d.stats.seek_time

    short = seek_of_first_read(1 * MB)
    far = seek_of_first_read(5_000 * MB)
    assert 0 < short < far <= DiskParams().full_stroke_seek_s
    assert seek_of_first_read(0) == 0.0


def test_out_of_range_request_rejected(env):
    d = make_disk(env)
    with pytest.raises(AddressError):
        d.read(d.capacity, 1)
    with pytest.raises(AddressError):
        d.read(-1, 10)


@pytest.mark.parametrize(
    "offset,nbytes,error",
    [(0, float("nan"), ValueError), (float("nan"), 10, AddressError)],
    ids=["nan_size", "nan_offset"],
)
def test_nan_request_rejected_before_queueing(env, offset, nbytes, error):
    d = make_disk(env)
    d.read(0, 32 * KiB)  # one request in flight
    state = (env.now, d.queue_depth, len(d._ff_items), d.stats.queue_depth_hw)
    with pytest.raises(error):
        d.submit("read", offset, nbytes)
    assert (
        env.now, d.queue_depth, len(d._ff_items), d.stats.queue_depth_hw
    ) == state
    env.run()
    p_ = d.params
    expected = p_.controller_overhead_s + 32 * KiB / p_.media_rate
    assert env.now == pytest.approx(expected)
    assert d.stats.busy_time == pytest.approx(expected)
    assert d.queue_depth == 0


def test_bad_op_rejected(env):
    d = make_disk(env)
    with pytest.raises(ValueError):
        d.submit("erase", 0, 10)


def test_failed_disk_fails_requests(env):
    d = make_disk(env)
    d.fail()
    errors = []

    def p(env):
        try:
            yield d.read(0, 1024)
        except DiskFailedError as e:
            errors.append(e.disk_id)

    env.process(p(env))
    env.run()
    assert errors == [0]


def test_repair_restores_service(env):
    d = make_disk(env)
    d.fail()
    d.repair()
    done = []

    def p(env):
        yield d.read(0, 1024)
        done.append(env.now)

    env.process(p(env))
    env.run()
    assert done


def test_queued_requests_fail_on_late_failure(env):
    d = make_disk(env)
    errors = []
    done = []

    def issuer(env):
        ev1 = d.read(0, 32 * KiB)
        ev2 = d.read(5_000 * MB, 32 * KiB)
        try:
            yield ev1
            done.append(1)
        except DiskFailedError:
            errors.append(1)
        try:
            yield ev2
            done.append(2)
        except DiskFailedError:
            errors.append(2)

    def breaker(env):
        yield env.timeout(0.001)  # during/after req1, before req2 done
        d.fail()

    env.process(issuer(env))
    env.process(breaker(env))
    env.run()
    assert errors  # at least the later request failed


def test_write_statistics(env):
    d = make_disk(env)

    def p(env):
        yield d.write(0, 64 * KiB)
        yield d.read(0, 32 * KiB)

    env.process(p(env))
    env.run()
    assert d.stats.writes == 1 and d.stats.reads == 1
    assert d.stats.bytes_written == 64 * KiB
    assert d.stats.bytes_read == 32 * KiB
    assert d.stats.total_ops == 2


def test_priority_class_zero_served_first(env):
    d = make_disk(env)
    order = []

    def issuer(env):
        # Fill the disk with one in-service op, then queue bg before fg.
        first = d.read(0, 32 * KiB)
        bg = d.submit("write", 10 * MB, 32 * KiB, priority=1)
        fg = d.submit("write", 20 * MB, 32 * KiB, priority=0)

        def mark(tag):
            def cb(ev):
                order.append(tag)

            return cb

        bg.callbacks.append(mark("bg"))
        fg.callbacks.append(mark("fg"))
        yield env.all_of([first, bg, fg])

    env.process(issuer(env))
    env.run()
    assert order == ["fg", "bg"]


def test_utilization_bounded(env):
    d = make_disk(env)

    def p(env):
        yield d.read(0, 32 * KiB)
        yield env.timeout(1)

    env.process(p(env))
    env.run()
    assert 0 < d.stats.busy_time < env.now


def test_custom_scheduler_actually_used(env):
    """Regression: an *empty* scheduler is falsy (it has __len__), so a
    naive ``scheduler or Fifo()`` default silently replaced it."""
    from repro.io.scheduler import SstfScheduler

    sched = SstfScheduler()
    d = Disk(env, DiskParams(), scheduler=sched)
    assert d.scheduler is sched
    order = []
    evs = []
    for off in (0, 9_000 * MB, 1 * MB):
        ev = d.read(off, 32 * KiB)
        ev.callbacks.append(lambda e, off=off: order.append(off))
        evs.append(ev)

    def p(env):
        yield env.all_of(evs)

    env.process(p(env))
    env.run()
    # SSTF from head 0: nearest first — the far request goes last.
    assert order == [0, 1 * MB, 9_000 * MB]


def test_queue_depth_counts_pending(env):
    d = make_disk(env)
    d.read(0, 32 * KiB)
    d.read(1 * MB, 32 * KiB)
    assert d.queue_depth == 2
    env.run()
    assert d.queue_depth == 0
