"""Fixtures for the buffer-cache boundary: ARCH001 and ARCH004.

Nothing below the engine imports ``repro.cache``, not even lazily
(ARCH001), and ``repro.cache`` itself stays pure bookkeeping (ARCH004).
The test names keep CACHE001/CACHE002, the retired codes these cases
were written for.
"""

from __future__ import annotations

import textwrap

from repro.lint import lint_sources
from tests.lint.util import codes


def lint(sources: dict[str, str], select: str = "ARCH") -> set[str]:
    deds = {name: textwrap.dedent(src) for name, src in sources.items()}
    return codes(lint_sources(deds, select=[select]))


# -- ARCH001: nothing below the engine sees the cache ---------------------

def test_cache001_fires_when_raid_imports_cache():
    assert "ARCH001" in lint({
        "repro.raid.fixture": """
            from repro.cache import BlockCache
            """,
    })


def test_cache001_fires_on_lazy_import_too():
    assert "ARCH001" in lint({
        "repro.hardware.fixture": """
            def sneaky():
                from repro.cache.core import BlockCache
                return BlockCache
            """,
    })


def test_cache001_silent_for_engine_level_and_above():
    assert "ARCH001" not in lint({
        "repro.cluster.fixture": """
            from repro.cache import BlockCache
            """,
        "repro.fs.fixture": """
            from repro.cache import CacheDirectory
            """,
    })


def test_cache001_silent_on_writecontext_data_path():
    # The sanctioned direction: cache state flows *down* as plain data.
    assert "ARCH001" not in lint({
        "repro.raid.fixture": """
            from repro.raid.plan import WriteContext

            def f(wctx: WriteContext) -> int:
                return len(wctx.absorbed)
            """,
    })


# -- ARCH004: the cache package stays pure --------------------------------

def test_cache002_fires_when_cache_imports_sim():
    assert "ARCH004" in lint({
        "repro.cache.fixture": """
            from repro.sim.core import Environment
            """,
    })


def test_cache002_fires_on_lazy_cluster_import():
    assert "ARCH004" in lint({
        "repro.cache.fixture": """
            def sneaky():
                from repro.cluster.engine import ExecutionEngine
                return ExecutionEngine
            """,
    })


def test_cache002_fires_on_yield():
    assert "ARCH004" in lint({
        "repro.cache.fixture": """
            def destage(env):
                yield env.timeout(1.0)
            """,
    })


def test_cache002_silent_on_cache_internal_and_base_imports():
    assert "ARCH004" not in lint({
        "repro.cache.fixture": """
            from repro.cache.policy import LRUPolicy
            from repro.errors import ReproError
            from repro.units import KiB

            def f():
                return LRUPolicy, ReproError, KiB
            """,
    })


def test_repo_is_cache_clean(src_findings):
    findings = [f for f in src_findings if f.rule in ("ARCH001", "ARCH004")]
    assert findings == []
