"""ARCH rules: import layering over the paper's module stack.

The reproduction is layered the way the paper's Figure 2 stacks its
software: the DES kernel (``sim``) at the bottom knows nothing above it;
device models (``hardware``, ``io``) sit on the kernel; the CDD/SIOS
layer (``cluster``) owns every hardware object; placement math
(``raid``), observability (``obs``) and the buffer-cache bookkeeping
(``cache``) are freestanding utilities; and everything
application-shaped (``fs``, ``checkpoint``, ``workloads``, ``fault``,
``analysis``, ``bench``) stacks on top.  Only module-level imports
count — lazy function-level imports and ``TYPE_CHECKING`` blocks are
the sanctioned cycle-breakers and are exempt — except an import of
``repro.cache``: the cache is an engine-level stage, and a layer below
the engine that needs cache state receives it as plain data (e.g.
:class:`repro.raid.plan.WriteContext`), never reaches up for it, not
even lazily.

Two module sets are *pure* — data in, data out — and :data:`PURE_MODULES`
names what each may import, lazily or not: the planners
(``repro.raid.plan``/``planners``, the pure half of the plan/execute
split) see only placement math, and ``repro.cache`` (pure bookkeeping,
whose timing lives in ``repro.cluster.cache_stage``) sees only itself.
Neither may contain ``yield``: a planner or a cache structure that
becomes a process generator has smuggled execution into bookkeeping.

========  ==============================================================
ARCH001   a package imports a layer it must not see (e.g. ``sim``
          importing anything, ``hardware`` importing ``cluster``, a
          layer below the engine importing ``repro.cache`` even lazily)
ARCH002   ``Disk``/``ScsiBus`` reached directly from outside the
          hardware/cluster boundary — all disk access goes through the
          CDD / single-I/O-space path
ARCH003   an import cycle among modules (module-level imports only)
ARCH004   a pure module (planners, ``repro.cache``) imports outside its
          own package and the base modules (even lazily) or contains a
          ``yield``
========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Set

from repro.lint.core import (
    BASE_MODULES,
    Finding,
    ModuleInfo,
    ProjectRule,
)

#: Which sibling packages each package may import (``units``/``errors``/
#: ``config`` are always allowed; intra-package imports likewise).
ALLOWED_IMPORTS: Dict[str, Set[str]] = {
    "sim": set(),
    "obs": set(),
    "raid": set(),
    "hardware": {"sim", "obs", "io"},
    "io": {"sim", "obs", "hardware"},
    "cache": set(),
    "cluster": {"sim", "obs", "hardware", "io", "raid", "cache"},
    "fs": {"sim", "obs", "hardware", "io", "raid", "cache", "cluster"},
    "checkpoint": {
        "sim", "obs", "hardware", "io", "raid", "cache", "cluster", "fs",
    },
    "workloads": {
        "sim", "obs", "hardware", "io", "raid", "cache", "cluster", "fs",
        "checkpoint",
    },
    "fault": {
        "sim", "obs", "hardware", "io", "raid", "cache", "cluster", "fs",
        "checkpoint", "workloads",
    },
    "analysis": {
        "sim", "obs", "hardware", "io", "raid", "cache", "cluster", "fs",
        "checkpoint", "workloads", "fault",
    },
    "bench": {
        "sim", "obs", "hardware", "io", "raid", "cache", "cluster", "fs",
        "checkpoint", "workloads", "fault", "analysis",
    },
    "lint": set(),
}

#: Names that must not cross the CDD/SIOS boundary.
_BOUNDARY_NAMES = {"Disk", "ScsiBus"}
#: Packages allowed to touch them (plus the defining modules themselves).
_BOUNDARY_PACKAGES = {"hardware", "cluster"}


def _dest_package(imported: str) -> str | None:
    parts = imported.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


class ArchLayeringRule(ProjectRule):
    """ARCH001: the layer table above, enforced."""

    code = "ARCH001"
    summary = "import-layering violation"

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        for mod in mods:
            src_pkg = mod.package
            if not mod.module.startswith("repro.") or not src_pkg:
                continue
            allowed = ALLOWED_IMPORTS.get(src_pkg)
            if allowed is None:
                continue
            for imported, _name, lineno, top in mod.repro_imports:
                dst = _dest_package(imported)
                if (
                    dst is None
                    or dst == src_pkg
                    or dst in BASE_MODULES
                    or dst in allowed
                    # Lazy imports are the sanctioned escape, except
                    # into the engine-level cache stage.
                    or (not top and dst != "cache")
                ):
                    continue
                yield Finding(
                    self.code, mod.path, lineno, 0,
                    f"{src_pkg} must not import {dst} "
                    f"({mod.module} -> {imported}); the layer table in "
                    "repro.lint.rules_arch names what each layer may see",
                )


class ArchBoundaryRule(ProjectRule):
    """ARCH002: Disk/ScsiBus stay behind the CDD/SIOS boundary."""

    code = "ARCH002"
    summary = "Disk/ScsiBus reached past the CDD/SIOS boundary"

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        for mod in mods:
            if not mod.module.startswith("repro."):
                continue
            if mod.package in _BOUNDARY_PACKAGES:
                continue
            for imported, name, lineno, _top in mod.repro_imports:
                if not imported.startswith("repro.hardware"):
                    continue
                if name in _BOUNDARY_NAMES:
                    yield Finding(
                        self.code, mod.path, lineno, 0,
                        f"{name} imported outside the CDD/SIOS boundary "
                        f"({mod.module}); disk access goes through the "
                        "cluster layer (CooperativeDiskDriver / "
                        "SingleIOSpace), never the raw device",
                    )


class ArchCycleRule(ProjectRule):
    """ARCH003: the module-level import graph stays a DAG."""

    code = "ARCH003"
    summary = "import cycle"

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        known = {m.module for m in mods}
        graph: Dict[str, Set[str]] = {m.module: set() for m in mods}
        lines: Dict[tuple, int] = {}
        for mod in mods:
            for imported, name, lineno, top in mod.repro_imports:
                if not top:
                    continue
                dst = imported
                if dst not in known and name and f"{dst}.{name}" in known:
                    dst = f"{dst}.{name}"  # `from repro.x import y` submodule
                if dst in known and dst != mod.module:
                    graph[mod.module].add(dst)
                    lines.setdefault((mod.module, dst), lineno)

        for cycle in _find_cycles(graph):
            head = cycle[0]
            mod = next(m for m in mods if m.module == head)
            lineno = lines.get((cycle[0], cycle[1 % len(cycle)]), 1)
            yield Finding(
                self.code, mod.path, lineno, 0,
                "import cycle: " + " -> ".join(cycle + [head]) + " "
                "(break it with a lazy import or by moving the shared "
                "type down a layer)",
            )


#: Pure module prefixes and the one repro package each may import
#: (besides the base modules), lazily or not.
PURE_MODULES: Dict[str, str] = {
    "repro.raid.plan": "raid",
    "repro.raid.planners": "raid",
    "repro.cache": "cache",
}


def _pure_package(module: str) -> str | None:
    for prefix, allowed in PURE_MODULES.items():
        if module == prefix or module.startswith(prefix + "."):
            return allowed
    return None


class PurityRule(ProjectRule):
    """ARCH004: planners and the cache package stay pure bookkeeping."""

    code = "ARCH004"
    summary = "pure module (planner or repro.cache) imports or yields"

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        for mod in mods:
            own = _pure_package(mod.module)
            if own is None:
                continue
            # Unlike ARCH001, lazy imports are NOT an escape hatch here:
            # a pure module that lazily imports the sim kernel is still
            # executing, just sneakily.
            for imported, _name, lineno, _top in mod.repro_imports:
                dst = _dest_package(imported)
                if dst is None or dst == own or dst in BASE_MODULES:
                    continue
                yield Finding(
                    self.code, mod.path, lineno, 0,
                    f"pure module {mod.module} imports repro.{dst} "
                    f"({imported}); it may see only repro.{own} and the "
                    "base modules — simulated time and hardware belong "
                    "to the cluster layer (the engine, the cache stage)",
                )
            for node in ast.walk(mod.tree):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    yield Finding(
                        self.code, mod.path, node.lineno, 0,
                        f"yield in pure module {mod.module}; it must not "
                        "be a process generator — return plain data and "
                        "let the cluster layer schedule the simulator "
                        "events",
                    )


def _find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components with more than one member (plus
    self-loops), smallest member first for stable reporting."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in sorted(graph.get(v, ())):
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            if len(comp) > 1 or v in graph.get(v, ()):
                comp.sort()
                sccs.append(comp)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    sccs.sort()
    return sccs


RULES = (
    ArchLayeringRule(),
    ArchBoundaryRule(),
    ArchCycleRule(),
    PurityRule(),
)
