"""Project-wide call graph over the parsed module set.

The interprocedural rule families (SIM taint, cross-function LOCK, the
FF legality contract) all need the same substrate: *which known function
does this call reach?*  This module builds it once per lint run from the
:class:`~repro.lint.core.ModuleInfo` import/alias tables:

* **symbols** — every module-level function, class, and method gets a
  dotted qualname (``repro.hardware.disk.Disk.submit``); aliased
  re-exports are followed through the importing module's alias table, so
  ``from repro.x import helper`` resolves to ``repro.x.helpers.helper``
  when ``repro/x/__init__.py`` re-exports it;
* **method resolution** — ``self.m()`` / ``cls.m()`` resolves over the
  known class hierarchy (bases resolved by dotted origin, nearest
  definition wins); ``ClassName.m()`` and constructor calls resolve the
  same way.  A bare ``obj.m()`` with an unknown receiver resolves only
  when exactly one known class defines ``m`` — these **unique-method**
  edges are kept in a separate, lower-confidence tier, and an ambiguous
  name (two classes defining ``m``) produces *no* edge: resolution never
  guesses between candidates;
* **SCC condensation** — an iterative Tarjan pass groups mutually
  recursive functions; SCCs come out callee-first, which is exactly the
  bottom-up order the summary caches (taint, lock ownership) need to
  stay O(functions).

The graph is memoized per module set (:func:`get_callgraph`), so the
SIM, LOCK and FF rules that consume it share one build.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.core import ModuleInfo


@dataclass
class FunctionInfo:
    """One known function/method and where it lives."""

    qualname: str
    module: str
    mod: ModuleInfo
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Simple name of the enclosing class, or None for a module-level def.
    cls: Optional[str]
    #: Parameter names in call order, ``self``/``cls`` already stripped.
    params: Tuple[str, ...]

    @property
    def site_key(self) -> str:
        """``Class.method`` (or bare function name) — the contract-table
        key the FF rules match allowed mutation sites against."""
        return f"{self.cls}.{self.node.name}" if self.cls else self.node.name


@dataclass
class ClassInfo:
    qualname: str
    name: str
    mod: ModuleInfo
    #: Base-class dotted origins as resolved in the defining module.
    bases: Tuple[str, ...]
    #: method name -> function qualname (own methods only).
    methods: Dict[str, str]


class CallGraph:
    """Functions, classes, and resolved call edges for one module set."""

    def __init__(self, mods: Sequence[ModuleInfo]):
        self.modules: Dict[str, ModuleInfo] = {m.module: m for m in mods}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> list of defining function qualnames.
        self.methods_by_name: Dict[str, List[str]] = {}
        #: caller qualname -> [(callee qualname, call node, certain)].
        self.sites: Dict[str, List[Tuple[str, ast.Call, bool]]] = {}
        #: caller -> callees (certain tier only / both tiers).
        self.calls_certain: Dict[str, Set[str]] = {}
        self.calls_all: Dict[str, Set[str]] = {}
        self.callers_certain: Dict[str, Set[str]] = {}
        self.callers_all: Dict[str, Set[str]] = {}
        self._mro_cache: Dict[str, Tuple[str, ...]] = {}
        for mod in mods:
            self._index_module(mod)
        for fn in list(self.functions.values()):
            self._resolve_function(fn)

    # -- indexing ----------------------------------------------------------
    def _index_module(self, mod: ModuleInfo) -> None:
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._index_class(mod, node)

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{mod.module}.{node.name}"
        bases = tuple(
            # A bare base name not bound by an import is a class from
            # this same module: qualify it so the MRO walk can find it.
            origin if "." in origin or origin in mod.aliases
            else f"{mod.module}.{origin}"
            for origin in (mod.resolve(b) for b in node.bases)
            if origin is not None
        )
        methods: Dict[str, str] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = self._add_function(mod, stmt, cls=node.name)
                methods[stmt.name] = fq
        self.classes[qual] = ClassInfo(qual, node.name, mod, bases, methods)

    def _add_function(
        self,
        mod: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: Optional[str],
    ) -> str:
        qual = (
            f"{mod.module}.{cls}.{node.name}"
            if cls
            else f"{mod.module}.{node.name}"
        )
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if cls and names and names[0] in ("self", "cls"):
            names = names[1:]
        names.extend(a.arg for a in args.kwonlyargs)
        info = FunctionInfo(qual, mod.module, mod, node, cls, tuple(names))
        self.functions[qual] = info
        if cls:
            self.methods_by_name.setdefault(node.name, []).append(qual)
        return info.qualname

    # -- symbol resolution -------------------------------------------------
    def canonicalize(self, origin: str, _depth: int = 0) -> Optional[str]:
        """Follow aliased re-exports until ``origin`` names a known
        function or class, or give up."""
        if not origin or _depth > 8:
            return None
        if origin in self.functions or origin in self.classes:
            return origin
        parts = origin.split(".")
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            owner = self.modules.get(prefix)
            if owner is None:
                continue
            target = owner.aliases.get(parts[i])
            if target is None:
                return None
            return self.canonicalize(
                ".".join([target] + parts[i + 1:]), _depth + 1
            )
        return None

    def _mro(self, class_qual: str, _depth: int = 0) -> Tuple[str, ...]:
        """Depth-first base linearization (good enough for this codebase;
        we need *a* nearest-definition order, not C3 exactness)."""
        cached = self._mro_cache.get(class_qual)
        if cached is not None:
            return cached
        if _depth > 16:
            return (class_qual,)
        order: List[str] = [class_qual]
        info = self.classes.get(class_qual)
        if info is not None:
            for base in info.bases:
                canon = self.canonicalize(base)
                if canon is None or canon not in self.classes:
                    continue
                for anc in self._mro(canon, _depth + 1):
                    if anc not in order:
                        order.append(anc)
        result = tuple(order)
        self._mro_cache[class_qual] = result
        return result

    def resolve_method(self, class_qual: str, name: str) -> Optional[str]:
        """Nearest definition of ``name`` over the class's hierarchy."""
        for anc in self._mro(class_qual):
            info = self.classes.get(anc)
            if info is not None and name in info.methods:
                return info.methods[name]
        return None

    def resolved_via_symbol(
        self, mod: ModuleInfo, call: ast.Call
    ) -> Optional[str]:
        """Canonical symbol a call's dotted spelling names, or None when
        the call is attribute dispatch on a runtime value."""
        origin = mod.resolve(call.func)
        if origin is None:
            return None
        if origin.split(".")[0] not in mod.aliases:
            # Head is a bare local name (``helper()``, ``Disk.spin()``):
            # try the defining module's own namespace first.
            local = self.canonicalize(f"{mod.module}.{origin}")
            if local is not None:
                return local
        return self.canonicalize(origin)

    def resolve_call(
        self, fn: Optional[FunctionInfo], mod: ModuleInfo, call: ast.Call
    ) -> Tuple[Optional[str], bool]:
        """``(callee qualname, certain)`` for one call, or ``(None, _)``.

        Certain tier: alias-resolved functions/classes, ``self``/``cls``
        method resolution, ``ClassName.method``.  Unique tier: attribute
        calls on unknown receivers whose method name has exactly one
        known definition.  Ambiguous names resolve to nothing.
        """
        func = call.func
        canon = self.resolved_via_symbol(mod, call)
        if canon is not None:
            return self._as_callable(canon), True
        if isinstance(func, ast.Attribute):
            recv = func.value
            if (
                isinstance(recv, ast.Name)
                and recv.id in ("self", "cls")
                and fn is not None
                and fn.cls is not None
            ):
                target = self.resolve_method(
                    f"{fn.module}.{fn.cls}", func.attr
                )
                if target is not None:
                    return target, True
                return None, True
            candidates = self.methods_by_name.get(func.attr, [])
            if len(candidates) == 1:
                return candidates[0], False
        return None, True

    def _as_callable(self, canon: str) -> Optional[str]:
        if canon in self.functions:
            return canon
        if canon in self.classes:
            # Constructing a known class executes its __init__.
            return self.resolve_method(canon, "__init__")
        return None

    # -- edge construction -------------------------------------------------
    def _resolve_function(self, fn: FunctionInfo) -> None:
        sites: List[Tuple[str, ast.Call, bool]] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.ClassDef) and node is not fn.node:
                continue  # nested class bodies are out of scope
            if not isinstance(node, ast.Call):
                continue
            callee, certain = self.resolve_call(fn, fn.mod, node)
            if callee is None or callee == fn.qualname:
                continue
            sites.append((callee, node, certain))
        self.sites[fn.qualname] = sites
        cert = {c for c, _n, ok in sites if ok}
        both = {c for c, _n, _ok in sites}
        self.calls_certain[fn.qualname] = cert
        self.calls_all[fn.qualname] = both
        for c in cert:
            self.callers_certain.setdefault(c, set()).add(fn.qualname)
        for c in both:
            self.callers_all.setdefault(c, set()).add(fn.qualname)

    def functions_in(self, mod: ModuleInfo) -> List[FunctionInfo]:
        return [f for f in self.functions.values() if f.mod is mod]

    # -- condensation ------------------------------------------------------
    def sccs(self, certain_only: bool = False) -> List[List[str]]:
        """Tarjan SCCs of the call graph, emitted callee-first (every
        SCC appears after all SCCs it calls into) — the bottom-up order
        the summary caches consume.  Iterative, so a deep helper chain
        cannot blow the recursion limit."""
        graph = self.calls_certain if certain_only else self.calls_all
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = 0
        for root in sorted(self.functions):
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack.add(v)
                advanced = False
                succ = sorted(graph.get(v, ()))
                for j in range(pi, len(succ)):
                    w = succ[j]
                    if w not in self.functions:
                        continue
                    if w not in index:
                        work[-1] = (v, j + 1)
                        work.append((w, 0))
                        advanced = True
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if low[v] == index[v]:
                    comp: List[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comp.sort()
                    sccs.append(comp)
                if work:
                    parent, _ = work[-1]
                    low[parent] = min(low[parent], low[v])
        return sccs

    def guarded_closure(
        self, seeds: Set[str], certain_only: bool = True
    ) -> Set[str]:
        """Seeds plus every function *only* reachable through them.

        A function joins the closure when it has at least one known
        caller and every known caller is already in the closure — i.e.
        every call chain that reaches it passes through a seed.  Used by
        the FF rules: a helper is "guard-aware" when all its callers
        are.  Functions with no known callers (entry points) never join.
        """
        callers = self.callers_certain if certain_only else self.callers_all
        legal = set(seeds)
        changed = True
        while changed:
            changed = False
            for qual in self.functions:
                if qual in legal:
                    continue
                cs = callers.get(qual)
                if cs and cs <= legal:
                    legal.add(qual)
                    changed = True
        return legal


#: One-slot memo: run_rules hands every rule the same module list, so
#: the interprocedural rules share one graph build.  The cached
#: CallGraph holds strong references to its ModuleInfos (via
#: FunctionInfo.mod), so the id()-based key cannot be recycled while the
#: entry is alive.
_CACHE: Dict[Tuple[int, ...], "CallGraph"] = {}


def get_callgraph(mods: Sequence[ModuleInfo]) -> CallGraph:
    key = tuple(id(m) for m in mods)
    graph = _CACHE.get(key)
    if graph is None:
        _CACHE.clear()
        graph = CallGraph(mods)
        _CACHE[key] = graph
    return graph
