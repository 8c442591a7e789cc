"""Shared helpers for the repro.lint rule fixtures."""

from __future__ import annotations

from pathlib import Path

from repro.lint import Finding, lint_sources

#: The repository's own source tree, as the self-check tests lint it.
REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def codes(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


def lint_one(module: str, source: str, select: str | None = None) -> list[Finding]:
    """Lint a single in-memory module under the given dotted name."""
    sel = select.split(",") if select else None
    return lint_sources({module: source}, select=sel)
