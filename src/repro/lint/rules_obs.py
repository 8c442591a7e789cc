"""OBS rules: tracing discipline.

The tracing subsystem has exactly one sanctioned wiring: instrumentation
reads the process-wide slot (``repro.obs.runtime.TRACER``), and installs
go through ``runtime.install()``/``runtime.tracing()``.  A tracer built
or slotted any other way is invisible to the instrumentation sites, or
skips the bookkeeping that restores the previous tracer.

========  ==============================================================
OBS001    direct ``Tracer()``/``NullTracer()`` construction outside
          ``repro.obs`` — bypasses the runtime slot, so instrumentation
          sites will not see it
OBS003    assignment to the ``TRACER`` slot outside
          ``repro.obs.runtime`` — use ``install()``/``tracing()``
========  ==============================================================

The sampler's determinism (``Tracer.keeps`` is a pure function of the
trace id and seed) needs no rule of its own: ``repro.obs`` is in the
SIM scope, so SIM001 and SIM002 report a clock read or an RNG draw there.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleInfo, Rule

_TRACER_CLASSES = {
    "repro.obs.trace.Tracer",
    "repro.obs.trace.NullTracer",
    "repro.obs.Tracer",
    "repro.obs.NullTracer",
}


class ObsDirectTracerRule(Rule):
    """OBS001: tracers are installed through the runtime slot, not built
    ad hoc."""

    code = "OBS001"
    summary = "direct tracer construction bypassing the runtime slot"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        if not mod.module.startswith("repro.") or mod.package in (
            "obs", "lint",
        ):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = mod.resolve(node.func)
            if origin in _TRACER_CLASSES:
                yield mod.finding(
                    node, self.code,
                    f"direct {origin.rsplit('.', 1)[-1]}() construction "
                    "bypasses the process-wide slot; use "
                    "repro.obs.runtime.install() or tracing()",
                )


class ObsSlotAssignRule(Rule):
    """OBS003: only the runtime module writes the TRACER slot."""

    code = "OBS003"
    summary = "TRACER slot assigned outside repro.obs.runtime"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        if mod.module in ("repro.obs.runtime",) or mod.package == "lint":
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and target.attr == "TRACER"
                ):
                    continue
                origin = mod.resolve(target.value)
                if origin in (
                    "repro.obs.runtime",
                    "repro.obs.runtime.TRACER",
                ) or (origin or "").endswith(".runtime"):
                    yield mod.finding(
                        node, self.code,
                        "assigning the TRACER slot directly skips "
                        "install()/tracing() bookkeeping; never poke "
                        "runtime.TRACER from outside repro.obs.runtime",
                    )


RULES = (ObsDirectTracerRule(), ObsSlotAssignRule())
