"""Interprocedural summaries: determinism taint and lock-ownership fates.

Built on the :mod:`repro.lint.callgraph` substrate, this module computes
the two per-function summary tables the cross-function rule families
consume, each in one bottom-up pass over the SCC condensation (so the
whole thing stays O(functions), not O(paths)):

* **Determinism taint** (:func:`get_taint`) — a function is *tainted*
  when it (transitively) reaches a wall-clock read, a real sleep,
  ``threading``, the stdlib ``random`` module, or unseeded NumPy
  randomness.  Direct sources are the same patterns SIM001/SIM002 match
  literally; taint then propagates caller-ward over resolved call edges,
  carrying the call chain for the report.  SIM005 fires where tainted
  code is *called from* simulation scope — the transitive catch the
  intraprocedural rules miss.
* **Lock-ownership summaries** (:class:`LockSummaries`) — every
  function is run once in the :class:`~repro.lint.cfg.FunctionAnalysis`
  summary mode (parameters seeded as held tokens) to classify what it
  does with a token handed to it (releases / keeps / escapes / mixed)
  and whether it returns a fresh acquire on every path.  The resulting
  :class:`~repro.lint.cfg.LockSummary` table is what the caller-mode
  resolver feeds back into the abstract interpreter.

Members of a non-trivial SCC (mutual recursion) get no lock summary —
callers fall back to the conservative ownership-transfer behavior — and
taint inside an SCC is unioned to a fixpoint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.cfg import FunctionAnalysis, LockSummary, Resolver

#: Wall-clock reads and real sleeps (resolved dotted origins).  These are
#: the canonical source sets — :mod:`repro.lint.rules_sim` re-exports
#: them for the literal (SIM001/SIM002) checks.
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
REAL_SLEEP = frozenset({"time.sleep"})

#: numpy.random attributes that are fine to reference (types and the
#: seedable constructor; the constructor's *call* is checked separately).
NP_RANDOM_OK = frozenset(
    {
        "numpy.random.Generator",
        "numpy.random.BitGenerator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.default_rng",
    }
)


@dataclass(frozen=True)
class Taint:
    """Why a function is non-deterministic."""

    #: "wall-clock" | "real-sleep" | "threading" | "random-module"
    #: | "unseeded-rng"
    kind: str
    #: the offending dotted origin, e.g. ``time.perf_counter``.
    origin: str
    #: call chain from the tainted function down to (and including) the
    #: function containing the direct source; empty for a direct source.
    chain: Tuple[str, ...]

    def describe(self) -> str:
        if not self.chain:
            return f"{self.origin} ({self.kind})"
        via = " -> ".join(self.chain)
        return f"{self.origin} ({self.kind}) via {via}"


def _direct_taint(fn: FunctionInfo) -> Optional[Taint]:
    mod = fn.mod
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = (
                [a.name for a in node.names]
                if isinstance(node, ast.Import)
                else [node.module or ""]
            )
            for name in names:
                root = name.split(".")[0]
                if root == "threading":
                    return Taint("threading", f"import {name}", ())
                if root == "random":
                    return Taint("random-module", f"import {name}", ())
        elif isinstance(node, ast.Call):
            origin = mod.resolve(node.func)
            if origin is None:
                continue
            root = origin.split(".")[0]
            if origin in WALL_CLOCK:
                return Taint("wall-clock", origin, ())
            if origin in REAL_SLEEP:
                return Taint("real-sleep", origin, ())
            if root == "threading":
                return Taint("threading", origin, ())
            if root == "random":
                return Taint("random-module", origin, ())
            if origin == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    return Taint("unseeded-rng", origin, ())
            elif origin.startswith("numpy.random.") and origin not in NP_RANDOM_OK:
                return Taint("unseeded-rng", origin, ())
    return None


def compute_taint(graph: CallGraph) -> Dict[str, Taint]:
    """Taint per function qualname; absent means provably clean (w.r.t.
    the known graph — unresolved calls contribute nothing, same as the
    intraprocedural rules)."""
    taints: Dict[str, Taint] = {}
    for scc in graph.sccs():
        for qual in scc:
            t = _direct_taint(graph.functions[qual])
            if t is not None:
                taints[qual] = t
        # Propagate from callees; within an SCC iterate to a fixpoint
        # (each member is assigned at most once, so this terminates).
        changed = True
        while changed:
            changed = False
            for qual in scc:
                if qual in taints:
                    continue
                for callee in sorted(graph.calls_all.get(qual, ())):
                    ct = taints.get(callee)
                    if ct is None:
                        continue
                    taints[qual] = Taint(
                        ct.kind, ct.origin, (callee,) + ct.chain
                    )
                    changed = True
                    break
    return taints


def get_taint(graph: CallGraph) -> Dict[str, Taint]:
    cached = getattr(graph, "_taint_table", None)
    if cached is None:
        cached = compute_taint(graph)
        graph._taint_table = cached  # type: ignore[attr-defined]
    return cached


class LockSummaries:
    """Lock-ownership summary table for one call graph.

    ``summaries[qual]`` is the callee's :class:`LockSummary`, or ``None``
    for members of recursion cycles (conservative: callers treat their
    calls as ownership transfer, exactly the pre-interprocedural
    behavior).  :meth:`resolver_for` builds the per-caller closure that
    :class:`FunctionAnalysis` consumes.
    """

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.summaries: Dict[str, Optional[LockSummary]] = {}
        self._call_maps: Dict[str, Dict[int, Tuple[str, bool]]] = {}
        for scc in graph.sccs(certain_only=True):
            if len(scc) > 1:
                for qual in scc:
                    self.summaries[qual] = None
                continue
            qual = scc[0]
            fn = graph.functions[qual]
            analysis = FunctionAnalysis(
                fn.node,
                resolver=self.resolver_for(qual),
                initial=fn.params,
            )
            analysis.run()
            self.summaries[qual] = LockSummary(
                qual,
                fn.params,
                analysis.param_fates(),
                analysis.returns_acquired(),
            )

    def _call_map(self, qual: str) -> Dict[int, Tuple[str, bool]]:
        cmap = self._call_maps.get(qual)
        if cmap is None:
            cmap = {}
            fn = self.graph.functions[qual]
            for callee, call, certain in self.graph.sites.get(qual, ()):
                if not certain:
                    # Lockset edges use the certain tier only: crediting
                    # a release on a guessed edge would hide real leaks.
                    continue
                cmap[id(call)] = (callee, self._needs_shift(fn, call, callee))
            self._call_maps[qual] = cmap
        return cmap

    def _needs_shift(
        self, fn: FunctionInfo, call: ast.Call, callee_qual: str
    ) -> bool:
        """``ClassName.method(obj, tok)`` passes the receiver explicitly,
        so positional arguments sit one slot right of the bound form."""
        callee = self.graph.functions.get(callee_qual)
        if callee is None or callee.cls is None:
            return False
        return self.graph.resolved_via_symbol(fn.mod, call) == callee_qual

    def resolver_for(self, qual: str) -> Resolver:
        cmap = self._call_map(qual)

        def resolve(call: ast.Call) -> Optional[LockSummary]:
            hit = cmap.get(id(call))
            if hit is None:
                return None
            callee, shift = hit
            summary = self.summaries.get(callee)
            if summary is None:
                return None
            if shift:
                return LockSummary(
                    summary.qualname,
                    ("<self>",) + summary.param_order,
                    summary.fates,
                    summary.returns_acquired,
                )
            return summary

        return resolve

    def returns_acquired_quals(self) -> set:
        return {
            q
            for q, s in self.summaries.items()
            if s is not None and s.returns_acquired
        }
