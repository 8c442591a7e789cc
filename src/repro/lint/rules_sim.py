"""SIM rules: determinism and simulation hygiene.

Simulation code (everything under the packages in
:data:`repro.lint.core.SIM_SCOPE`) runs inside a single-threaded
discrete-event kernel whose only clock is ``env.now`` and whose only
randomness is :class:`repro.sim.rand.RandomStreams`.  Wall-clock reads,
real sleeps, threads, or unseeded draws silently break reproducibility
— the exact bug class a seed-pinned simulator exists to rule out.

========  ==============================================================
SIM001    wall-clock / real-sleep / threading use in simulation code
SIM002    ``random`` module or unseeded NumPy randomness in simulation
          code (use ``repro.sim.rand`` named streams, or at minimum an
          explicitly seeded ``default_rng``)
SIM003    a process generator yields a value the kernel cannot wait on
          (string, tuple/list/dict display, ``None``, bool)
SIM004    ``yield env.timeout(dt)`` where the documented hot-path form
          is a plain numeric ``yield dt``
SIM005    simulation code calls a helper that (transitively) reaches a
          wall-clock read, real sleep, threading, or unseeded
          randomness — the interprocedural extension of SIM001/SIM002,
          reported where the taint *enters* simulation scope
SIM006    a link hold (``BandwidthLink.hold`` or a wrapper returning
          it) whose value is not the direct operand of ``yield``
========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.lint.callgraph import get_callgraph
from repro.lint.core import Finding, ModuleInfo, ProjectRule, Rule
from repro.lint.summaries import (
    NP_RANDOM_OK as _NP_RANDOM_OK,
    REAL_SLEEP as _REAL_SLEEP,
    WALL_CLOCK as _WALL_CLOCK,
    get_taint,
)


class SimWallClockRule(Rule):
    """SIM001: simulated code must take time only from ``env.now``."""

    code = "SIM001"
    summary = "wall-clock, real sleep, or threading in simulation code"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        if not mod.in_sim_scope:
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (
                    [a.name for a in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module or ""]
                )
                for name in names:
                    if name.split(".")[0] == "threading":
                        yield mod.finding(
                            node, self.code,
                            "threading has no place in simulation code: "
                            "the kernel is single-threaded by design",
                        )
            elif isinstance(node, ast.Call):
                origin = mod.resolve(node.func)
                if origin in _REAL_SLEEP:
                    yield mod.finding(
                        node, self.code,
                        "time.sleep() stalls the real process, not the "
                        "simulation — yield a numeric delay instead",
                    )
                elif origin in _WALL_CLOCK:
                    yield mod.finding(
                        node, self.code,
                        f"{origin}() reads the wall clock; simulation "
                        "code must use env.now",
                    )


class SimRandomnessRule(Rule):
    """SIM002: randomness must be named, seeded streams."""

    code = "SIM002"
    summary = "random module or unseeded randomness in simulation code"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        if not mod.in_sim_scope:
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield mod.finding(
                            node, self.code,
                            "the stdlib random module is process-global "
                            "state; draw from repro.sim.rand streams",
                        )
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "random":
                    yield mod.finding(
                        node, self.code,
                        "the stdlib random module is process-global "
                        "state; draw from repro.sim.rand streams",
                    )
            elif isinstance(node, ast.Call):
                origin = mod.resolve(node.func)
                if origin is None or not origin.startswith("numpy.random."):
                    continue
                if origin == "numpy.random.default_rng":
                    if not node.args and not node.keywords:
                        yield mod.finding(
                            node, self.code,
                            "default_rng() without a seed draws from OS "
                            "entropy; pass an explicit seed (or use "
                            "repro.sim.rand.RandomStreams)",
                        )
                elif origin not in _NP_RANDOM_OK:
                    yield mod.finding(
                        node, self.code,
                        f"{origin}() uses NumPy's legacy global stream; "
                        "use a seeded Generator (repro.sim.rand)",
                    )


class SimYieldRule(Rule):
    """SIM003: process generators may yield only events and numeric delays."""

    code = "SIM003"
    summary = "process generator yields a value the kernel cannot wait on"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        if not mod.in_sim_scope:
            return
        # Visit every statement list exactly once, tracking the previous
        # sibling (the return-then-yield generator marker needs it).
        for block in ast.walk(mod.tree):
            for slot in ("body", "orelse", "finalbody"):
                stmts = getattr(block, slot, None)
                if not isinstance(stmts, list):
                    continue
                prev = None
                for stmt in stmts:
                    if isinstance(stmt, ast.stmt):
                        yield from self._check_stmt(mod, stmt, prev)
                    prev = stmt

    def _check_stmt(
        self, mod: ModuleInfo, stmt: ast.stmt, prev: ast.stmt | None
    ) -> Iterator[Finding]:
        if not isinstance(stmt, (ast.Expr, ast.Assign)):
            return
        value = stmt.value
        if not isinstance(value, ast.Yield):
            return
        yielded = value.value
        if yielded is None or (
            isinstance(yielded, ast.Constant) and yielded.value is None
        ):
            # ``return`` followed by an unreachable bare ``yield`` is the
            # sanctioned marker that keeps a no-op body a generator.
            if isinstance(prev, (ast.Return, ast.Raise)):
                return
            yield mod.finding(
                value, self.code,
                "bare yield hands None to the kernel, which cannot wait "
                "on it (only the unreachable return-then-yield generator "
                "marker is exempt)",
            )
        elif isinstance(yielded, ast.Constant) and (
            isinstance(yielded.value, (str, bytes, bool))
        ):
            yield mod.finding(
                value, self.code,
                f"yield of {type(yielded.value).__name__} constant: a "
                "process may only yield Events or numeric delays",
            )
        elif isinstance(
            yielded,
            (ast.List, ast.Tuple, ast.Dict, ast.Set, ast.ListComp,
             ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.JoinedStr),
        ):
            yield mod.finding(
                value, self.code,
                "yield of a container/string display: wrap multiple "
                "events in env.all_of()/env.any_of()",
            )


class SimTimeoutFormRule(Rule):
    """SIM004: plain numeric yields are the documented hot-path sleep."""

    code = "SIM004"
    summary = "yield env.timeout(dt) where a numeric yield is the hot-path form"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        if not mod.in_sim_scope:
            return
        for stmt in ast.walk(mod.tree):
            if not isinstance(stmt, ast.Expr):
                continue
            value = stmt.value
            if not isinstance(value, ast.Yield) or value.value is None:
                continue
            call = value.value
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "timeout"
                and len(call.args) == 1
                and not call.keywords
            ):
                continue
            recv = call.func.value
            is_env = (isinstance(recv, ast.Name) and recv.id == "env") or (
                isinstance(recv, ast.Attribute) and recv.attr in ("env", "_env")
            )
            if is_env:
                yield mod.finding(
                    call, self.code,
                    "yield env.timeout(dt): the kernel's hot-path sleep "
                    "is a plain numeric `yield dt` (no Timeout object, "
                    "no callback dispatch)",
                )


class SimTaintRule(ProjectRule):
    """SIM005: transitive determinism violations, caught at the boundary.

    SIM001/SIM002 fire at the literal offending call, but only inside
    sim-scope modules — a helper in a non-scope package (``bench``,
    ``analysis``, a utility module) that reads the wall clock is
    invisible to them.  This rule propagates taint over the project call
    graph and reports every sim-scope call site whose resolved callee is
    tainted and lives *outside* sim scope: the edge where
    non-determinism crosses into the simulator.  (Inside sim scope the
    source itself is already a SIM001/SIM002 finding; re-reporting every
    caller would only add noise.)
    """

    code = "SIM005"
    summary = "call into code that transitively reaches a determinism violation"

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        if not any(m.in_sim_scope for m in mods):
            return
        graph = get_callgraph(mods)
        taints = get_taint(graph)
        if not taints:
            return
        for mod in mods:
            if not mod.in_sim_scope:
                continue
            for fn in graph.functions_in(mod):
                for callee, call, _certain in graph.sites.get(fn.qualname, ()):
                    taint = taints.get(callee)
                    if taint is None:
                        continue
                    callee_fn = graph.functions[callee]
                    if callee_fn.mod.in_sim_scope:
                        continue  # source is reported there directly
                    yield mod.finding(
                        call, self.code,
                        f"{callee_fn.node.name}() transitively reaches "
                        f"{taint.describe()} (defined outside simulation "
                        f"scope in {callee_fn.module}); simulation code "
                        "must stay deterministic through every helper it "
                        "calls",
                    )


#: The link wait every hold wrapper bottoms out in (``Class.method``).
_HOLD = "BandwidthLink.hold"


def _operands(fn: ast.AST, kind: type) -> set:
    """ids of the value nodes of every ``kind`` (Yield/Return) in ``fn``."""
    return {
        id(n.value) for n in ast.walk(fn)
        if isinstance(n, kind) and n.value is not None
    }


class SimHoldYieldRule(ProjectRule):
    """SIM006: a link hold is yielded the moment it is booked.

    ``BandwidthLink.hold`` tags the active process's sleep with the
    link, and the kernel releases the link's ``outstanding`` when that
    sleep pops (DESIGN §6.19), so the returned delay must be yielded at
    once.  A call resolving (either call-graph tier) to ``hold``, or to
    a wrapper that directly ``return``s one (to a fixpoint:
    ``Cpu.xor`` → ``Cpu.busy`` → ``hold``), must be the direct operand
    of ``yield`` — or be returned directly, making its caller a wrapper.
    """

    code = "SIM006"
    summary = "link hold not yielded at once"

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        graph = get_callgraph(mods)
        fns = graph.functions
        holds = {q for q, fn in fns.items() if fn.site_key == _HOLD}
        rets = {q: _operands(fn.node, ast.Return) for q, fn in fns.items()}
        grown = bool(holds)
        while grown:
            wrappers = {
                q for q, sites in graph.sites.items()
                if any(c in holds and id(call) in rets[q]
                       for c, call, _ in sites)
            }
            grown = not wrappers <= holds
            holds |= wrappers
        for q, sites in graph.sites.items():
            fn = fns[q]
            if not fn.mod.in_sim_scope:
                continue
            legal = rets[q] | _operands(fn.node, ast.Yield)
            for callee, call, _certain in sites:
                if callee in holds and id(call) not in legal:
                    yield fn.mod.finding(
                        call, self.code,
                        f"{fns[callee].site_key}() books a link hold whose "
                        "delay must be yielded at once; use "
                        "BandwidthLink.transfer() for a wait that is "
                        "stored, composed, or yielded later",
                    )


RULES = (
    SimWallClockRule(),
    SimRandomnessRule(),
    SimYieldRule(),
    SimTimeoutFormRule(),
    SimTaintRule(),
    SimHoldYieldRule(),
)
