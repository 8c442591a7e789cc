"""repro.lint — the simulator-aware static analyzer.

Run it locally with::

    PYTHONPATH=src python -m repro.lint src            # text output
    python -m repro.lint src --format json             # machine output
    python -m repro.lint src --select SIM,LOCK001      # one family/rule

Rule families (see each module's docstring for the full rationale):

* **SIM** (:mod:`repro.lint.rules_sim`) — determinism: no wall clock,
  no real sleeps, no threads, no unseeded randomness, only kernel-legal
  yields, numeric-yield sleeps on the hot path.
* **LOCK** (:mod:`repro.lint.rules_lock`) — the paper's atomic
  grant/release: every lock acquire releases on all paths.
* **OBS** (:mod:`repro.lint.rules_obs`) — tracing discipline: tracers
  live in the runtime slot, and only ``repro.obs.runtime`` writes it.
* **ARCH** (:mod:`repro.lint.rules_arch`) — import layering, the
  Disk/ScsiBus boundary, cycle detection, and the purity of the
  planners and of the ``repro.cache`` bookkeeping package.
* **FF** (:mod:`repro.lint.rules_ff`) — the fast-forward legality
  contract: guard-state mutations only at owning sites, float-only
  pricing, ``ff_preload`` downstream of ``ff_ready``.
* **LINT** (:mod:`repro.lint.rules_lint`) — stale suppressions.

The SIM taint, LOCK and FF families are *interprocedural*: they share
one project call graph (:mod:`repro.lint.callgraph`), and SIM005 and
LOCK read per-function summary tables (:mod:`repro.lint.summaries`), so
a violation hidden one call deep — a wall-clock read in a helper, a
lock released in a callee, a guard-state write in a function nobody
guards — is caught at the boundary where it matters.

Any finding fails the run.  The one escape hatch is a line-scoped
``# lint: ignore[CODE]`` with a reason next to it, and LINT001 reports
one that no longer suppresses anything.
"""

from __future__ import annotations

from typing import Sequence

from repro.lint.core import (
    Finding,
    ModuleInfo,
    ProjectRule,
    Rule,
    load_modules,
    run_rules,
)
from repro.lint.rules_arch import RULES as ARCH_RULES
from repro.lint.rules_ff import RULES as FF_RULES
from repro.lint.rules_lint import RULES as LINT_RULES
from repro.lint.rules_lock import RULES as LOCK_RULES
from repro.lint.rules_obs import RULES as OBS_RULES
from repro.lint.rules_sim import RULES as SIM_RULES

#: Every registered rule, in reporting order.  LINT_RULES must stay
#: last: LINT001 reports the suppressions every *earlier* rule's
#: findings failed to use.
ALL_RULES = (
    tuple(SIM_RULES)
    + tuple(LOCK_RULES)
    + tuple(OBS_RULES)
    + tuple(ARCH_RULES)
    + tuple(FF_RULES)
    + tuple(LINT_RULES)
)


def lint_paths(
    paths: Sequence[str],
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Parse ``paths`` and run every (selected) rule; returns findings."""
    mods, parse_errors = load_modules(paths)
    return parse_errors + run_rules(mods, ALL_RULES, select)


def lint_sources(
    sources: dict[str, str],
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint in-memory sources (``{module_name: source}``) — the fixture
    entry point the rule tests use."""
    mods = [
        ModuleInfo(name.replace(".", "/") + ".py", name, src)
        for name, src in sources.items()
    ]
    return run_rules(mods, ALL_RULES, select)


__all__ = [
    "ALL_RULES",
    "Finding",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "lint_paths",
    "lint_sources",
    "load_modules",
    "run_rules",
]
