"""LOCK rules: the paper's atomic grant/release requirement, statically.

§4 of the paper requires the CDD lock-group table's write locks to be
granted and released atomically: a client that acquires a group and then
dies, raises, or forgets the handle strands the group for every other
CDD.  The rules below run the release-on-all-paths analysis
(:mod:`repro.lint.cfg`) over every function that touches a recognized
acquire method (``Mutex.acquire``, ``DistributedLockManager.acquire``,
``CooperativeDiskDriver.acquire_write_locks``) — and, since the
interprocedural engine, across function boundaries: callee summaries
(:mod:`repro.lint.summaries`) let the interpreter credit a release that
happens inside a helper, keep tracking a token a helper merely borrows,
and treat a helper that *returns* a fresh acquire on every path as an
acquire site in the caller.

========  ==============================================================
LOCK001   a lock acquired here may not be released on some path out of
          the function — wrap the held region in ``try/finally`` (or
          transfer ownership into a handle immediately).  Since the
          interprocedural engine this also covers acquires obtained
          *from* a helper, tokens a callee provably keeps held, and a
          held lock passed to a callee that releases it on some paths
          but not all (reported at that call: the caller cannot know
          whether it still owns the lock)
LOCK002   the acquire's return value is discarded: nothing can ever
          release this lock
========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.lint.callgraph import get_callgraph
from repro.lint.cfg import ACQUIRE_METHODS, FunctionAnalysis
from repro.lint.core import Finding, ModuleInfo, ProjectRule
from repro.lint.summaries import LockSummaries

_LEAK_MSG = (
    "lock acquired here may not be released on all paths; hold it "
    "under try/finally (or a with block) so a failure between grant "
    "and release cannot strand the group"
)
_DISCARD_MSG = (
    "acquire result discarded: keep the request handle and release "
    "it, or nothing ever can"
)


def _in_scope(mod: ModuleInfo) -> bool:
    return mod.module.startswith("repro.") and mod.package not in (
        "lint",
        "bench",
        "analysis",
    )


def _mentions_acquire(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr in ACQUIRE_METHODS
        for n in ast.walk(node)
    )


class LockReleaseRule(ProjectRule):
    """LOCK001/LOCK002 over every function in lock-using modules."""

    code = "LOCK"
    summary = "lock acquires must be released on all paths (across calls)"

    def codes(self) -> tuple[str, ...]:
        return ("LOCK001", "LOCK002")

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        scope = [m for m in mods if _in_scope(m)]
        if not scope:
            return
        graph = get_callgraph(mods)
        summaries = LockSummaries(graph)
        returns_acquired = summaries.returns_acquired_quals()
        graphed_nodes = {id(fn.node) for fn in graph.functions.values()}
        for mod in scope:
            for fn in graph.functions_in(mod):
                calls_ra = bool(
                    graph.calls_certain.get(fn.qualname, set())
                    & returns_acquired
                )
                if not calls_ra and not _mentions_acquire(fn.node):
                    continue
                analysis = FunctionAnalysis(
                    fn.node, resolver=summaries.resolver_for(fn.qualname)
                )
                analysis.run()
                yield from self._report(mod, analysis)
            # Nested defs are outside the call graph; run them in the
            # original intraprocedural mode so nothing regresses.
            for node in ast.walk(mod.tree):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and id(node) not in graphed_nodes
                    and _mentions_acquire(node)
                ):
                    analysis = FunctionAnalysis(node)
                    analysis.run()
                    yield from self._report(mod, analysis)

    def _report(
        self, mod: ModuleInfo, analysis: FunctionAnalysis
    ) -> Iterator[Finding]:
        for site in analysis.leaks.values():
            yield mod.finding(site, "LOCK001", _LEAK_MSG)
        for site in analysis.discards:
            yield mod.finding(site, "LOCK002", _DISCARD_MSG)
        for call, _token, callee in analysis.mixed_calls.values():
            short = callee.rsplit(".", 1)[-1]
            yield mod.finding(
                call, "LOCK001",
                f"held lock passed to {short}(), which releases it on "
                "some paths but not all — the caller cannot know whether "
                "it still owns the lock; make the callee release "
                "unconditionally (try/finally) or not at all",
            )


RULES = (LockReleaseRule(),)
