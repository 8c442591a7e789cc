"""Interprocedural LOCK analysis: summaries across function boundaries.

The PR-3 analyzer treated any held token passed to a call as an
ownership transfer and went silent.  With callee summaries the engine
now (a) stays quiet when the callee provably releases on all paths,
(b) reports LOCK001 when the callee provably does NOT release
("keeps"), (c) reports LOCK001 at the call when the callee releases on
some paths only ("mixed"; the test name keeps LOCK003, its retired
code), and (d) tracks acquisition through factory helpers that return
a fresh handle (``returns_acquired``).
"""

from __future__ import annotations

import textwrap

from tests.lint.util import codes
from repro.lint import lint_sources


def lint(sources: dict):
    return lint_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()},
        select=["LOCK"],
    )


def test_lock_released_in_callee_is_clean():
    # The acceptance fixture: release happens one call level down.  The
    # intraprocedural analyzer could only stay silent by *assuming*
    # transfer; the summary now proves release-on-all-paths.
    findings = lint({
        "repro.raid.mgr": """
            class Mgr:
                def write(self, group):
                    h = self.locks.acquire_write_locks(group)
                    self._close(h)

                def _close(self, h):
                    try:
                        self.apply()
                    finally:
                        self.locks.release_write_locks(h)
            """,
    })
    assert findings == []


def test_callee_that_keeps_the_token_means_caller_leaks():
    # PR-3 missed this: passing h to ANY call counted as a transfer.
    # The summary proves _borrow never releases, so the caller leaks.
    findings = lint({
        "repro.raid.mgr": """
            class Mgr:
                def write(self, group):
                    h = self.locks.acquire_write_locks(group)
                    self._borrow(h)

                def _borrow(self, h):
                    self.count += 1
            """,
    })
    assert codes(findings) == {"LOCK001"}
    (f,) = findings
    assert f.line == 4  # reported at the acquire site


def test_callee_that_releases_on_some_paths_only_is_lock003():
    findings = lint({
        "repro.raid.mgr": """
            class Mgr:
                def write(self, group, ok):
                    h = self.locks.acquire_write_locks(group)
                    self._maybe_close(h, ok)

                def _maybe_close(self, h, ok):
                    if ok:
                        self.locks.release_write_locks(h)
            """,
    })
    assert codes(findings) == {"LOCK001"}
    (f,) = findings
    assert "_maybe_close" in f.message
    assert "some paths but not all" in f.message


def test_factory_returning_acquired_handle_tracks_into_caller():
    findings = lint({
        "repro.raid.mgr": """
            class Mgr:
                def _grab(self, group):
                    return self.locks.acquire_write_locks(group)

                def bad(self, group):
                    h = self._grab(group)
                    self.count += 1

                def good(self, group):
                    h = self._grab(group)
                    try:
                        self.count += 1
                    finally:
                        self.locks.release_write_locks(h)
            """,
    })
    assert codes(findings) == {"LOCK001"}
    (f,) = findings
    assert f.line == 7  # the _grab() call inside bad(), not inside good()


def test_release_through_reexported_module_helper():
    # Aliased re-export: the releasing helper is imported through a
    # package module under a new name; the call graph canonicalizes the
    # alias chain so the summary still applies.
    findings = lint({
        "repro.raid.helpers": """
            def finish(locks, h):
                try:
                    return len(h)
                finally:
                    locks.release_write_locks(h)
            """,
        "repro.raid": """
            from repro.raid.helpers import finish
            """,
        "repro.raid.mgr": """
            from repro.raid import finish as _done

            class Mgr:
                def write(self, group):
                    h = self.locks.acquire_write_locks(group)
                    _done(self.locks, h)
            """,
    })
    assert findings == []


def test_mutual_recursion_falls_back_to_conservative_transfer():
    # A recursion cycle gets no summary; the engine must neither crash
    # nor invent a leak — it falls back to the PR-3 transfer assumption.
    findings = lint({
        "repro.raid.mgr": """
            class Mgr:
                def write(self, group):
                    h = self.locks.acquire_write_locks(group)
                    self._ping(h, 3)

                def _ping(self, h, n):
                    if n:
                        self._pong(h, n - 1)

                def _pong(self, h, n):
                    if n:
                        self._ping(h, n - 1)
                    else:
                        self.locks.release_write_locks(h)
            """,
    })
    assert findings == []


def test_intraprocedural_leak_still_fires():
    # Regression guard: the summary machinery must not weaken the
    # original same-function analysis.
    findings = lint({
        "repro.raid.mgr": """
            class Mgr:
                def write(self, group):
                    h = self.locks.acquire_write_locks(group)
                    self.count += 1
            """,
    })
    assert codes(findings) == {"LOCK001"}
