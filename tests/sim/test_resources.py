"""Resource behaviour."""

import pytest

from repro.sim import Environment, Resource


def test_resource_capacity_enforced(env):
    res = Resource(env, capacity=2)
    log = []

    def worker(env, i):
        with res.request() as req:
            yield req
            log.append(("start", i, env.now))
            yield env.timeout(1)

    for i in range(4):
        env.process(worker(env, i))
    env.run()
    starts = {i: t for _, i, t in log}
    assert starts[0] == 0 and starts[1] == 0
    assert starts[2] == 1 and starts[3] == 1


def test_resource_fifo_order(env):
    res = Resource(env, capacity=1)
    order = []

    def worker(env, i):
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    for i in range(5):
        env.process(worker(env, i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_without_hold_rejected(env):
    res = Resource(env)
    req = res.request()
    env.run()
    res.release(req)
    with pytest.raises(RuntimeError):
        res.release(req)


def test_failed_waiter_releases_cleanly(env):
    """``with res.request()`` must not corrupt the resource when the
    waiting process fails before its grant: ``release`` of the
    un-granted request cancels it (``Request.cancel``)."""
    res = Resource(env, capacity=1)
    order = []
    waiting = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def give_up(env):
        yield env.timeout(1)
        raise RuntimeError("gave up")

    def third(env):
        with res.request() as req:
            yield req
            order.append(("third", env.now))

    def impatient(env):
        try:
            with res.request() as req:
                waiting.append(req)
                yield env.all_of([req, env.process(give_up(env))])
                order.append("granted")
        except RuntimeError:
            order.append(("failed", env.now))
            env.process(third(env))

    env.process(holder(env))
    env.process(impatient(env))
    env.run()
    # The failed waiter left the queue; the third process got the slot
    # as soon as the holder released it.
    assert order == [("failed", 1), ("third", 5)]
    assert not waiting[0].triggered
    assert res.count == 0 and not res.queue


def test_release_of_already_released_request_still_errors(env):
    res = Resource(env)
    req = res.request()
    env.run()
    res.release(req)
    with pytest.raises(RuntimeError):
        res.release(req)


def test_request_cancel_leaves_queue(env):
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    second.cancel()
    res.release(first)
    assert not second.triggered
    assert res.count == 0
