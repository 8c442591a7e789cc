"""Fixtures for the SIM determinism / sim-hygiene rules."""

from __future__ import annotations

import textwrap

from tests.lint.util import codes, lint_one


def lint(src: str, module: str = "repro.cluster.fixture") -> set[str]:
    return codes(lint_one(module, textwrap.dedent(src), select="SIM"))


# -- SIM001: wall clock / real sleep / threading -------------------------

def test_sim001_fires_on_wall_clock_read():
    assert "SIM001" in lint(
        """
        import time

        def stamp():
            return time.time()
        """
    )


def test_sim001_fires_on_real_sleep_and_threading():
    found = lint(
        """
        import threading
        import time

        def pause():
            time.sleep(1.0)
        """
    )
    assert "SIM001" in found


def test_sim001_silent_on_env_now_and_outside_sim_scope():
    assert "SIM001" not in lint(
        """
        def stamp(env):
            return env.now
        """
    )
    # bench is measurement code: wall clock is the point there.
    assert "SIM001" not in lint(
        """
        import time

        def stamp():
            return time.time()
        """,
        module="repro.bench.fixture",
    )


# -- SIM002: randomness discipline ---------------------------------------

def test_sim002_fires_on_stdlib_random_import():
    assert "SIM002" in lint(
        """
        import random

        def pick(items):
            return random.choice(items)
        """
    )


def test_sim002_fires_on_unseeded_default_rng():
    assert "SIM002" in lint(
        """
        import numpy as np

        def make():
            return np.random.default_rng()
        """
    )


def test_sim002_silent_on_seeded_generator():
    assert "SIM002" not in lint(
        """
        import numpy as np

        def make(seed):
            return np.random.default_rng(seed)
        """
    )


# -- SIM003: kernel-legal yields -----------------------------------------

def test_sim003_fires_on_string_and_container_yields():
    assert "SIM003" in lint(
        """
        def proc(env):
            yield "not an event"
        """
    )
    assert "SIM003" in lint(
        """
        def proc(env, a, b):
            yield [a, b]
        """
    )


def test_sim003_fires_on_reachable_bare_yield():
    assert "SIM003" in lint(
        """
        def proc(env):
            yield
        """
    )


def test_sim003_silent_on_generator_marker_and_numeric_yield():
    assert "SIM003" not in lint(
        """
        def proc(env, dt, ev):
            yield dt
            yield ev

        def empty(env):
            return
            yield  # pragma: no cover - keeps this a generator
        """
    )


# -- SIM004: hot-path sleep form -----------------------------------------

def test_sim004_fires_on_env_timeout_yield():
    assert "SIM004" in lint(
        """
        def proc(env):
            yield env.timeout(3.0)
        """
    )
    assert "SIM004" in lint(
        """
        class P:
            def run(self):
                yield self.env.timeout(1)
        """
    )


def test_sim004_silent_on_plain_numeric_yield():
    assert "SIM004" not in lint(
        """
        def proc(env):
            yield 3.0
        """
    )


# -- SIM006: link holds are yielded at once ------------------------------

_LINK = """
class BandwidthLink:
    def hold(self, nbytes):
        return nbytes / self.rate

    def transfer(self, nbytes):
        return self.env.timeout(nbytes / self.rate)


class Cpu:
    def busy(self, seconds):
        return self._work.hold(seconds)

    def memcpy(self, nbytes):
        return self.busy(nbytes / self.rate)
"""


def sim006(body: str) -> list:
    src = _LINK + textwrap.dedent(body)
    return lint_one("repro.hardware.fixture", src, select="SIM006")


def test_sim006_fires_on_stored_or_composed_hold():
    found = sim006(
        """
        def stored(link):
            delay = link.hold(10)
            yield delay

        def composed(env, link, cpu):
            yield env.all_of([link.hold(1), cpu.busy(2)])

        def delegated(link):
            yield from link.hold(3)
        """
    )
    assert [f.rule for f in found] == ["SIM006"] * 4
    assert {f.line for f in found} == {
        _LINK.count("\n") + n for n in (3, 7, 10)
    }


def test_sim006_follows_wrappers_of_wrappers():
    found = sim006(
        """
        def proc(env, cpu):
            copy = cpu.memcpy(4096)
            yield env.timeout(0)
            yield copy
        """
    )
    assert len(found) == 1
    assert "Cpu.memcpy()" in found[0].message


def test_sim006_silent_on_direct_yield_return_and_transfer():
    assert sim006(
        """
        def proc(env, link, cpu):
            yield link.hold(10)
            yield cpu.busy(1)
            value = yield cpu.memcpy(64)
            pending = link.transfer(5)
            yield pending
            return value

        class Nic:
            def send_occupancy(self, nbytes):
                return self.tx.hold(nbytes)
        """
    ) == []


def test_sim006_silent_outside_sim_scope():
    src = _LINK + textwrap.dedent(
        """
        def measure(link):
            return [link.hold(1)]
        """
    )
    assert lint_one("repro.bench.fixture", src, select="SIM006") == []
