"""Fixtures for the OBS tracing-discipline rules."""

from __future__ import annotations

import textwrap

from tests.lint.util import codes, lint_one


def lint(src: str, module: str = "repro.cluster.fixture") -> set[str]:
    return codes(lint_one(module, textwrap.dedent(src), select="OBS"))


# -- OBS001: no ad-hoc tracer construction -------------------------------

def test_obs001_fires_on_direct_tracer_construction():
    assert "OBS001" in lint(
        """
        from repro.obs import Tracer

        def make():
            return Tracer()
        """
    )


def test_obs001_silent_inside_repro_obs():
    assert "OBS001" not in lint(
        """
        from repro.obs.trace import Tracer

        def make():
            return Tracer()
        """,
        module="repro.obs.fixture",
    )


# -- OBS003: only runtime writes the slot --------------------------------

def test_obs003_fires_on_direct_slot_assignment():
    assert "OBS003" in lint(
        """
        from repro.obs import runtime

        def hijack(tracer):
            runtime.TRACER = tracer
        """
    )


def test_obs003_silent_inside_runtime_module():
    assert "OBS003" not in lint(
        """
        import repro.obs.runtime as runtime

        def install(tracer):
            runtime.TRACER = tracer
        """,
        module="repro.obs.runtime",
    )


# -- the sampler: SIM001/SIM002 keep it deterministic ---------------------
# repro.obs is in the SIM scope, so a clock read or an RNG draw in a
# sampling decision is a SIM finding; the sampler needs no rule of its own.
# (The test names keep OBS004, the retired code these cases were written
# for.)

def sim(src: str, module: str = "repro.obs.fixture") -> set[str]:
    return codes(lint_one(module, textwrap.dedent(src), select="SIM"))


def test_obs004_fires_on_rng_draw_in_sampler():
    assert "SIM002" in sim(
        """
        import random

        def keeps(self, trace):
            return random.random() < self.sample_rate
        """
    )


def test_obs004_fires_on_wall_clock_in_sampler():
    assert "SIM001" in sim(
        """
        import time

        def sample_decision(trace, rate):
            return (time.time_ns() % 100) / 100.0 < rate
        """
    )


def test_obs004_fires_on_unseeded_numpy_rng_in_sampler():
    assert "SIM002" in sim(
        """
        import numpy.random

        def resample(traces, rate):
            rng = numpy.random.default_rng()
            return [t for t in traces if rng.random() < rate]
        """
    )


def test_obs004_silent_on_seeded_hash_sampler():
    assert not sim(
        """
        def keeps(self, trace):
            x = (trace ^ self.sample_seed) & ((1 << 64) - 1)
            x = (x * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
            x ^= x >> 29
            return (x >> 11) * 2.0 ** -53 < self.sample_rate
        """
    )
