"""FF rules: the fast-forward legality contract, statically.

PR 5–7 replaced the event-driven service loops with closed-form
("fast-forward") pricing: ``Disk`` completions come from one recurring
marker, and ``ExecutionEngine.try_fast_submit`` /
``Node.try_fast_forward`` price conflict-free requests at submit time
with float arithmetic that is term-for-term identical to the slow path.
That equivalence rests on a contract the type system cannot see:

* the **conflict predicates** read a fixed set of state
  (pipeline/NIC/disk parked flags, ``phase_inflight``, mirror
  ``dirty_groups``, the ``_ff_plans`` memo, link ``_free_at`` /
  ``outstanding``), and every *mutation* of that state must happen in
  code that re-checks or invalidates the guard — a write from anywhere
  else silently de-synchronizes the fast path from the event-driven
  truth;
* the **pricing functions** (``try_fast_forward`` and the ``ff_``/
  ``_ff_`` family) must mirror the slow path's float arithmetic
  exactly: an int truncation or an ordering-dependent reduction
  produces values the event-driven path would never compute;
* ``ff_preload`` (arming the completion marker) is only legal downstream
  of an ``ff_ready`` guard check.

========  ==============================================================
FF001     mutation of fast-forward guard state outside the functions
          that own the guard (or helpers reachable only from them)
FF002     int truncation (``//``, ``int()``, ``math.floor``/``ceil``/
          ``trunc``, ``round``, ``divmod``) in a closed-form pricing
          function — pricing is float-only, mirroring the slow path;
          covers the ``ff_``/``_ff_`` families and the ``try_fast_*``
          submit twins
FF003     ordering-dependent reduction (``sum``/``min``/``max`` over a
          set, iteration over a set) in a pricing function
FF004     ``ff_preload`` called from code that is not downstream of an
          ``ff_ready`` guard check
========  ==============================================================

The ownership table below names allowed mutation sites as
``Class.method`` keys (module-agnostic, so the fixture suite can model
the contract with small stand-in classes).  A helper whose *every*
caller is an allowed site is legal too (``CallGraph.guarded_closure``) —
refactoring a guard owner into private helpers does not trip the rule.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Sequence, Set

from repro.lint.callgraph import CallGraph, FunctionInfo, get_callgraph
from repro.lint.core import Finding, ModuleInfo, ProjectRule

#: Guard state read by the fast-forward conflict predicates, and the
#: ``Class.method`` sites allowed to mutate each attribute (the guard
#: owners: they re-check or invalidate the predicate around the write).
GUARDED: Dict[str, FrozenSet[str]] = {
    # Disk parked-server machinery (PR 5).
    "_ff_parked": frozenset(
        {"Disk.__init__", "Disk.submit", "Disk.ff_preload", "Disk._ff_next"}
    ),
    "_ff_wake_req": frozenset(
        {"Disk.__init__", "Disk.submit", "Disk._ff_step", "Disk._ff_next"}
    ),
    "_ff_items": frozenset({"Disk.__init__", "Disk.submit", "Disk._ff_next"}),
    "_ff_req": frozenset({"Disk.__init__", "Disk._ff_step", "Disk._ff_next"}),
    "_ff_info": frozenset({"Disk.__init__", "Disk._ff_next"}),
    "_pending": frozenset(
        {
            "Disk.__init__",
            "Disk.submit",
            "Disk.ff_preload",
            "Disk._ff_step",
            "Disk._ff_next",
        }
    ),
    # Engine-level predicates (PR 6; the memo moved into its bounded
    # accessor in PR 10).
    "_ff_plans": frozenset(
        {
            "ExecutionEngine.__init__",
            "ExecutionEngine.try_fast_submit",
            "ExecutionEngine._ff_resolved",
        }
    ),
    "phase_inflight": frozenset(
        {"ExecutionEngine.__init__", "DistributedArraySystem.submit"}
    ),
    "dirty_groups": frozenset(
        {
            "MirrorState.__init__",
            "ExecutionEngine._exec_orthogonal",
            "ExecutionEngine._flush_one",
        }
    ),
    # Link claims the closed form prices against: every reservation,
    # eager fast-forward claims included, books through _reserve.
    "_free_at": frozenset(
        {"BandwidthLink.__init__", "BandwidthLink._reserve"}
    ),
    # In-flight link waits: a transfer's Timeout releases its count in
    # _completed, a hold's sleep in the kernel's dispatch (DESIGN 6.19).
    "outstanding": frozenset(
        {
            "BandwidthLink.__init__",
            "BandwidthLink.transfer",
            "BandwidthLink._completed",
            "BandwidthLink.hold",
            "Environment.run",
            "Environment.step",
        }
    ),
}

#: Method calls that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

_TRUNCATION_CALLS = {
    "int": "int()",
    "round": "round()",
    "divmod": "divmod()",
    "math.floor": "math.floor()",
    "math.ceil": "math.ceil()",
    "math.trunc": "math.trunc()",
}

_REDUCERS = frozenset({"sum", "min", "max"})


def _in_scope(mod: ModuleInfo) -> bool:
    return mod.module.startswith("repro.") and mod.package not in (
        "lint",
        "bench",
        "analysis",
    )


#: Closed-form pricing functions named outside the ``ff_``/``_ff_``
#: convention: the submit-time twins.
_PRICING_NAMES = frozenset({"try_fast_forward", "try_fast_submit"})


def _is_pricing(name: str) -> bool:
    return name in _PRICING_NAMES or name.startswith(("ff_", "_ff_"))


def _legal_sets(graph: CallGraph) -> Dict[str, Set[str]]:
    """attr -> set of function qualnames allowed to mutate it (owners by
    site key, plus helpers reachable only from owners)."""
    legal: Dict[str, Set[str]] = {}
    for attr, owners in GUARDED.items():
        seeds = {
            qual
            for qual, fn in graph.functions.items()
            if fn.site_key in owners
        }
        legal[attr] = graph.guarded_closure(seeds)
    return legal


class FFGuardedMutationRule(ProjectRule):
    """FF001: guard state only changes where the guard is owned."""

    code = "FF001"
    summary = "fast-forward guard state mutated outside its owning sites"

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        scope = [m for m in mods if _in_scope(m)]
        if not scope:
            return
        graph = get_callgraph(mods)
        legal = _legal_sets(graph)
        node_to_fn = {id(fn.node): fn for fn in graph.functions.values()}
        for mod in scope:
            yield from self._visit(mod, mod.tree, None, legal, node_to_fn)

    def _visit(
        self,
        mod: ModuleInfo,
        node: ast.AST,
        owner: "FunctionInfo | None",
        legal: Dict[str, Set[str]],
        node_to_fn: Dict[int, FunctionInfo],
    ) -> Iterator[Finding]:
        """Attribute every mutation to the innermost *graphed* enclosing
        function (nested defs inherit their method's ownership); mutations
        at module level are never legal."""
        for child in ast.iter_child_nodes(node):
            child_owner = node_to_fn.get(id(child), owner)
            for attr, site in _direct_mutations_of(child):
                if child_owner is None:
                    yield self._finding(mod, site, attr, "module level")
                elif not (
                    child_owner.site_key in GUARDED[attr]
                    or child_owner.qualname in legal[attr]
                ):
                    yield self._finding(mod, site, attr, child_owner.site_key)
            yield from self._visit(mod, child, child_owner, legal, node_to_fn)

    def _finding(
        self, mod: ModuleInfo, node: ast.AST, attr: str, site: str
    ) -> Finding:
        owners = ", ".join(sorted(GUARDED[attr]))
        return mod.finding(
            node, self.code,
            f"{attr!r} is read by the fast-forward conflict predicates; "
            f"mutating it in {site} de-synchronizes the closed-form path "
            f"from the event-driven truth (allowed sites: {owners}, or "
            "helpers called only from them)",
        )


def _direct_mutations_of(node: ast.AST) -> Iterator[tuple]:
    """Guarded mutations at this exact node (no recursion)."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        if isinstance(node, ast.Assign):
            targets = []
            for t in node.targets:
                targets.extend(
                    t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t]
                )
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        else:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr in GUARDED:
                yield target.attr, node
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr in GUARDED
    ):
        yield node.func.value.attr, node


class FFPricingPurityRule(ProjectRule):
    """FF002/FF003: closed-form pricing is float-only and order-free.

    The legality proofs in DESIGN 6.13/6.14 argue the fast path computes
    *the same floats* as the event-driven path.  Truncating to int or
    folding over an unordered container can only produce values the slow
    path never computes; both are flagged inside any pricing function.
    Integer arithmetic that feeds a *subscript* (geometry indexing) is
    exempt — indexing is integral by nature and never a priced quantity.
    """

    code = "FF002"
    summary = "int truncation or order-dependent reduction in pricing code"

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        for mod in mods:
            if not _in_scope(mod):
                continue
            for fn in ast.walk(mod.tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not _is_pricing(fn.name):
                    continue
                yield from self._check_pricing(mod, fn)

    def _check_pricing(
        self, mod: ModuleInfo, fn: ast.AST
    ) -> Iterator[Finding]:
        findings: list = []

        def visit(node: ast.AST, in_slice: bool) -> None:
            if isinstance(node, ast.Subscript):
                visit(node.value, in_slice)
                visit(node.slice, True)
                return
            if not in_slice:
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.FloorDiv
                ):
                    findings.append(
                        mod.finding(
                            node, "FF002",
                            f"floor division in pricing function "
                            f"{fn.name}(): closed-form pricing must use "
                            "float arithmetic term-for-term identical to "
                            "the event-driven path",
                        )
                    )
                elif isinstance(node, ast.Call):
                    origin = mod.resolve(node.func)
                    label = _TRUNCATION_CALLS.get(origin or "")
                    if label is not None:
                        findings.append(
                            mod.finding(
                                node, "FF002",
                                f"{label} in pricing function {fn.name}(): "
                                "truncation produces values the slow path "
                                "never computes",
                            )
                        )
                    else:
                        findings.extend(self._reduction(mod, fn, node))
                elif isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(
                    node.iter, mod
                ):
                    findings.append(
                        mod.finding(
                            node, "FF003",
                            f"iteration over a set in pricing function "
                            f"{fn.name}(): set order is insertion-history "
                            "dependent — price over an ordered sequence",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, in_slice)

        for stmt in fn.body:
            visit(stmt, False)
        yield from findings

    def _reduction(
        self, mod: ModuleInfo, fn: ast.AST, call: ast.Call
    ) -> Iterator[Finding]:
        origin = mod.resolve(call.func)
        if origin not in _REDUCERS or not call.args:
            return
        arg = call.args[0]
        if _is_set_expr(arg, mod) or (
            isinstance(arg, ast.GeneratorExp)
            and arg.generators
            and _is_set_expr(arg.generators[0].iter, mod)
        ):
            yield mod.finding(
                call, "FF003",
                f"{origin}() over a set in pricing function "
                f"{getattr(fn, 'name', '?')}(): float reduction order "
                "follows set iteration order, which the event-driven "
                "path does not share",
            )


def _is_set_expr(node: ast.AST, mod: ModuleInfo) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        return mod.resolve(node.func) in ("set", "frozenset")
    return False


class FFPreloadGuardRule(ProjectRule):
    """FF004: arming the completion marker requires the guard check."""

    code = "FF004"
    summary = "ff_preload reachable without an ff_ready guard check"

    _GUARD_NAMES = ("ff_ready",)

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        scope = [m for m in mods if _in_scope(m)]
        if not scope:
            return
        graph = get_callgraph(mods)
        seeds = {
            qual
            for qual, fn in graph.functions.items()
            if any(
                isinstance(n, ast.Attribute) and n.attr in self._GUARD_NAMES
                for n in ast.walk(fn.node)
            )
        }
        legal = graph.guarded_closure(seeds)
        for mod in scope:
            for fn in graph.functions_in(mod):
                if fn.node.name == "ff_preload":
                    continue  # the implementation itself
                for node in ast.walk(fn.node):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "ff_preload"
                        and fn.qualname not in legal
                    ):
                        yield mod.finding(
                            node, self.code,
                            f"{fn.node.name}() arms the fast-forward "
                            "completion marker without checking ff_ready "
                            "(directly or in any caller); preloading an "
                            "unready disk double-schedules its server",
                        )


RULES = (
    FFGuardedMutationRule(),
    FFPricingPurityRule(),
    FFPreloadGuardRule(),
)
