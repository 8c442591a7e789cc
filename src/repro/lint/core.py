"""Framework of the simulator-aware static analyzer.

The analyzer parses every target file once, wraps it in a
:class:`ModuleInfo` (path, dotted module name, AST, source lines, import
table), and runs two kinds of rules over the result:

* :class:`Rule` — examines one module's AST at a time (the literal SIM
  checks and the OBS family);
* :class:`ProjectRule` — examines the whole module set at once (import
  layering and cycles need the import *graph*, and the interprocedural
  rules need the call graph, not one file).

Findings are plain value objects; any finding fails the run.

Suppression: append ``# lint: ignore`` (or ``# lint: ignore[SIM001]``)
to the offending line.  Suppressions are deliberately line-scoped —
there is no file- or block-level escape hatch.  The marker is anchored
to a real trailing *comment token* (found with :mod:`tokenize`), so the
text ``# lint: ignore`` inside a string literal is inert; and every
suppression must earn its keep — one that no longer suppresses any
finding is itself reported (LINT001, :mod:`repro.lint.rules_lint`).
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Sub-packages whose code runs (or is imported by) simulation processes
#: and must therefore obey the determinism rules: simulated time only,
#: named seeded random streams only, no threads.
SIM_SCOPE = frozenset(
    {
        "sim",
        "hardware",
        "io",
        "cluster",
        "raid",
        "fs",
        "checkpoint",
        "workloads",
        "fault",
        "obs",
        "cache",
    }
)

#: Top-level helper modules every layer may import.
BASE_MODULES = frozenset({"units", "errors", "config"})


@dataclass(frozen=True)
class Finding:
    """One reported violation."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ModuleInfo:
    """One parsed target file plus derived lookup tables."""

    def __init__(self, path: str, module: str, source: str):
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        #: local name -> dotted origin, e.g. ``np`` -> ``numpy``,
        #: ``_obs`` -> ``repro.obs.runtime`` (module-level and nested
        #: imports both contribute; later bindings win).
        self.aliases: dict[str, str] = {}
        #: (imported module, bound name or None, lineno, top_level) —
        #: repro-internal imports only, for the ARCH rules.
        self.repro_imports: list[tuple[str, str | None, int, bool]] = []
        #: line -> (codes or None for blanket, column of the comment).
        #: Collected from real COMMENT tokens only: the marker inside a
        #: string literal is not a suppression.
        self.suppressions: dict[int, tuple[frozenset[str] | None, int]] = {}
        #: Lines whose suppression actually suppressed >= 1 finding in
        #: the current run (reset by :func:`run_rules`); the complement
        #: is what LINT001 reports.
        self.suppression_hits: set[int] = set()
        self._collect_imports()
        self._collect_suppressions()

    # -- derived properties ----------------------------------------------
    @property
    def package(self) -> str:
        """Second component of the module path (``repro.sim.core`` -> ``sim``)."""
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 else ""

    @property
    def in_sim_scope(self) -> bool:
        return self.module.startswith("repro.") and self.package in SIM_SCOPE

    # -- imports -----------------------------------------------------------
    def _collect_imports(self) -> None:
        top_level_ids = {id(stmt) for stmt in self.tree.body}
        type_checking_ids: set[int] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.If) and _is_type_checking_test(node.test):
                for sub in ast.walk(node):
                    type_checking_ids.add(id(sub))
        for node in ast.walk(self.tree):
            top = id(node) in top_level_ids and id(node) not in type_checking_ids
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.aliases[local] = alias.name if alias.asname else (
                        alias.name.split(".")[0]
                    )
                    if alias.name.split(".")[0] == "repro":
                        self.repro_imports.append(
                            (alias.name, None, node.lineno, top)
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"
                    if node.module.split(".")[0] == "repro":
                        self.repro_imports.append(
                            (node.module, alias.name, node.lineno, top)
                        )

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted origin of a Name/Attribute chain, through import aliases.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        under ``import numpy as np``; ``perf_counter`` resolves to
        ``time.perf_counter`` under ``from time import perf_counter``.
        Returns ``None`` for anything that is not a plain dotted chain.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self.aliases.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])

    # -- suppressions ------------------------------------------------------
    def _collect_suppressions(self) -> None:
        """Find ``# lint: ignore[...]`` markers in real comment tokens.

        The old line-text scan matched the marker anywhere — including
        inside string literals — so a docstring *describing* the escape
        hatch silently suppressed findings on its line.  Tokenizing
        anchors the marker to the trailing comment token: the comment's
        text (after ``#``) must *start* with ``lint: ignore``.
        """
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                body = tok.string[1:].lstrip()
                if not body.startswith("lint: ignore"):
                    continue
                rest = body[len("lint: ignore"):].strip()
                line, col = tok.start
                if not rest.startswith("["):
                    self.suppressions[line] = (None, col)
                    continue
                raw = rest[1:rest.find("]")] if "]" in rest else rest[1:]
                self.suppressions[line] = (
                    frozenset(c.strip() for c in raw.split(",") if c.strip()),
                    col,
                )
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            # The file parsed as AST, so this is near-unreachable; a
            # tokenizer hiccup just means no suppressions are honoured.
            pass

    def suppressed(self, line: int, rule: str) -> bool:
        entry = self.suppressions.get(line)
        if entry is None:
            return False
        codes, _col = entry
        if codes is None or rule in codes:
            self.suppression_hits.add(line)
            return True
        return False

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule, self.path, line, col, message)


def _is_type_checking_test(test: ast.AST) -> bool:
    return (
        isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
    ) or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


class Rule:
    """A module-scoped rule.  Subclasses set ``code`` and implement ``check``."""

    code: str = ""
    summary: str = ""

    def codes(self) -> tuple[str, ...]:
        """Every finding code this rule reports."""
        return (self.code,)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError
        yield


class ProjectRule(Rule):
    """A rule that needs every module at once (import-graph analyses)."""

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterator[Finding]:
        raise NotImplementedError
        yield


def module_name_for(path: Path) -> str:
    """Dotted module name for a source path (``src/repro/x/y.py`` ->
    ``repro.x.y``); falls back to the stem for paths outside a package."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in ("repro",):
        if anchor in parts:
            return ".".join(parts[parts.index(anchor):])
    return parts[-1] if parts else "<unknown>"


def collect_files(paths: Iterable[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(
                f for f in sorted(p.rglob("*.py"))
                if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            out.append(p)
    return out


def load_modules(paths: Iterable[str]) -> tuple[list[ModuleInfo], list[Finding]]:
    """Parse every target file; syntax errors become PARSE findings."""
    mods: list[ModuleInfo] = []
    errors: list[Finding] = []
    for f in collect_files(paths):
        rel = f.as_posix()
        try:
            source = f.read_text(encoding="utf-8")
            mods.append(ModuleInfo(rel, module_name_for(f), source))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    "PARSE", rel, exc.lineno or 1, exc.offset or 0,
                    f"cannot parse: {exc.msg}",
                )
            )
    return mods, errors


def run_rules(
    mods: Sequence[ModuleInfo],
    rules: Sequence[Rule],
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Run ``rules`` over ``mods``; ``select`` filters findings by code
    prefix (``SIM`` selects the family, ``SIM002`` one rule).

    The suppression check runs *before* the ``select`` filter so that a
    suppression is marked used whenever it matches a real finding, even
    one outside the selection — LINT001 (unused suppressions, emitted by
    the last registered rule from ``suppression_hits``) therefore never
    flags a suppression just because the run was narrowed.
    """
    findings: list[Finding] = []
    by_path = {m.path: m for m in mods}
    for m in mods:
        m.suppression_hits.clear()
    for rule in rules:
        produced: list[Finding] = []
        if isinstance(rule, ProjectRule):
            produced.extend(rule.check_project(mods))
        else:
            for mod in mods:
                produced.extend(rule.check(mod))
        for f in produced:
            mod = by_path.get(f.path)
            if mod is not None:
                if f.rule == "LINT001":
                    # A stale suppression cannot launder itself with a
                    # blanket marker; only an explicit [LINT001] works.
                    entry = mod.suppressions.get(f.line)
                    if entry is not None and entry[0] is not None and (
                        "LINT001" in entry[0]
                    ):
                        mod.suppression_hits.add(f.line)
                        continue
                elif mod.suppressed(f.line, f.rule):
                    continue
            if select and not any(f.rule.startswith(s) for s in select):
                continue
            findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
