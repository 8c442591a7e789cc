"""Every rule code earns its keep: a live mutant per code.

Each row of :data:`MUTANTS` rewrites one real line of today's ``src/``
into a one-line violation of one rule code.  The test applies every
mutant to an in-memory copy of the tree, lints it once, and requires
each mutant's finding at its exact ``(code, module, line)``.  A rule
that is unregistered, or narrowed until it misses its real target,
fails here, and a registered rule code with no row fails
:func:`test_every_rule_code_has_a_live_mutant`.

A row names the line by its text, so an edit to that line in ``src/``
fails the test until the row follows it.  The finding lands on the
mutated line itself, except where ``found_at`` names the line it crosses
into (SIM005 reports where the taint enters simulation scope).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.lint import ALL_RULES, lint_sources
from repro.lint.core import collect_files, module_name_for
from tests.lint.util import REPO_SRC

REPO = REPO_SRC.parent


class Mutant(NamedTuple):
    code: str
    module: str
    #: The line as it stands in src/ (stripped; must be unique there).
    line: str
    #: What it becomes (indentation is kept).
    becomes: str
    #: ``(module, line)`` of the finding, when it is not the mutated line.
    found_at: tuple[str, str] | None = None


MUTANTS = (
    # The sampler (Tracer.keeps) stays a pure seeded hash: a clock read,
    # a stdlib random draw and a numpy.random draw are all SIM findings.
    Mutant(
        "SIM001", "repro.obs.trace",
        "x = (x * 0x9E3779B97F4A7C15) & _MASK64",
        "import time; x = (x * time.perf_counter_ns()) & _MASK64",
    ),
    Mutant(
        "SIM002", "repro.obs.trace",
        "x ^= x >> 29",
        "import random; x ^= random.getrandbits(29)",
    ),
    Mutant(
        "SIM002", "repro.obs.trace",
        "x ^= x >> 32",
        "import numpy; x ^= int(numpy.random.randint(1 << 32))",
    ),
    Mutant("SIM003", "repro.fs.filesystem", "yield ev", "yield [ev]"),
    Mutant(
        "SIM004", "repro.workloads.openloop",
        "yield delay",
        "yield self.env.timeout(delay)",
    ),
    Mutant(
        "SIM005", "repro.config",
        "return nbytes / self.xor_rate",
        "import time; return nbytes / self.xor_rate + 0.0 * time.time()",
        found_at=(
            "repro.hardware.cpu",
            "return self.busy(passes * self.params.xor_time(nbytes))",
        ),
    ),
    Mutant(
        "SIM006", "repro.hardware.cpu",
        "return self.busy(nbytes / self.params.memcpy_rate)",
        "return 0.0 + self.busy(nbytes / self.params.memcpy_rate)",
    ),
    # §4 atomic grant/release: a call between the grant and the try
    # strands the stripe lock if it raises; a dropped request handle
    # can never be released.
    Mutant(
        "LOCK001", "repro.cluster.engine",
        "lock = self._stripe_lock(sw.stripe).acquire(owner=client)",
        "lock = self._stripe_lock(sw.stripe).acquire(owner=client); "
        "self._stripe_lock(sw.stripe)",
    ),
    Mutant(
        "LOCK002", "repro.cluster.consistency",
        "req = self._mutex(g).acquire(owner=client)",
        "self._mutex(g).acquire(owner=client)",
    ),
    Mutant(
        "OBS001", "repro.cluster.consistency",
        "tracer = _obs.TRACER",
        "from repro.obs import Tracer; tracer = Tracer()",
    ),
    Mutant(
        "OBS003", "repro.cluster.transport",
        "tracer = _obs.TRACER",
        "tracer = _obs.TRACER = _obs.NULL_TRACER",
    ),
    # Fig. 2 layering: the kernel reaching up, a layer below the engine
    # reaching for the cache (lazily), a raw Disk past the CDD/SIOS
    # boundary, a cycle, and impure planner and cache modules.
    Mutant(
        "ARCH001", "repro.sim.sync",
        "from repro.sim.core import Environment",
        "from repro.sim.core import Environment; "
        "from repro.obs import runtime as _obs",
    ),
    Mutant(
        "ARCH001", "repro.raid.layout",
        "period, advance, entries = table",
        "from repro.cache import BlockCache; period, advance, entries = table",
    ),
    Mutant(
        "ARCH002", "repro.fs.blockdev",
        "from repro.cluster.message import ACK_BYTES, MessageKind",
        "from repro.cluster.message import ACK_BYTES, MessageKind; "
        "from repro.hardware.disk import Disk",
    ),
    Mutant(
        "ARCH003", "repro.raid.plan",
        "from repro.raid.layout import Placement",
        "from repro.raid.layout import Placement; import repro.raid.planners",
    ),
    Mutant(
        "ARCH004", "repro.raid.planners",
        "layout = self.layout",
        "from repro.sim.core import Environment; layout = self.layout",
    ),
    Mutant(
        "ARCH004", "repro.cache.destage",
        "dirty = cache.dirty_blocks()[: self.batch_blocks]",
        "dirty = yield cache.dirty_blocks()[: self.batch_blocks]",
    ),
    # The fast-forward legality contract (DESIGN §6.13/§6.14).
    Mutant(
        "FF001", "repro.hardware.node",
        "now = self.env._now",
        "now = self.env._now; self.cpu._work._free_at = now",
    ),
    Mutant(
        "FF002", "repro.hardware.node",
        "return t1 + self.scsi._link._reserve(nbytes, 0.0, t1)",
        "return t1 + self.scsi._link._reserve(nbytes // 1, 0.0, t1)",
    ),
    Mutant(
        "FF003", "repro.hardware.node",
        "t1 = self.ff_claim_cpu(self.config.cpu.kernel_request_overhead_s)",
        "t1 = max({self.ff_claim_cpu(self.config.cpu.kernel_request_overhead_s)})",
    ),
    Mutant(
        "FF004", "repro.hardware.node",
        "yield disk.submit(op, offset, nbytes, priority=priority, trace=trace)",
        "yield disk.ff_preload(op, offset, nbytes, self.env.now, priority)",
    ),
    Mutant(
        "LINT001", "repro.units",
        "return bytes_per_second / MB",
        "return bytes_per_second / MB  # lint: ignore[SIM001]",
    ),
)

_CODE = re.compile(r"\b[A-Z]+\d{3}\b")


def _src_tree() -> dict[str, str]:
    return {
        module_name_for(f.relative_to(REPO_SRC)): f.read_text(encoding="utf-8")
        for f in collect_files([str(REPO_SRC)])
    }


def _line_no(sources: dict[str, str], module: str, text: str) -> int:
    hits = [
        i for i, line in enumerate(sources[module].split("\n"), 1)
        if line.strip() == text
    ]
    assert len(hits) == 1, (
        f"{module}: {text!r} occurs {len(hits)} times; move the mutant "
        "to the line's new text"
    )
    return hits[0]


def test_every_rule_code_has_a_live_mutant():
    registered = {code for rule in ALL_RULES for code in rule.codes()}
    assert {m.code for m in MUTANTS} == registered


def test_live_mutants_are_caught():
    sources = _src_tree()
    mutated = dict(sources)
    expected = set()
    for m in MUTANTS:
        n = _line_no(sources, m.module, m.line)
        lines = mutated[m.module].split("\n")
        old = lines[n - 1]
        lines[n - 1] = old[: len(old) - len(old.lstrip())] + m.becomes
        mutated[m.module] = "\n".join(lines)
        where, text = m.found_at or (m.module, m.line)
        expected.add(
            (m.code, where.replace(".", "/") + ".py",
             _line_no(sources, where, text))
        )
    found = {(f.rule, f.path, f.line) for f in lint_sources(mutated)}
    assert sorted(expected - found) == []


def test_docs_name_only_live_rule_codes():
    live = {m.code for m in MUTANTS}
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    assert set(_CODE.findall(readme + design)) <= live
    table = "\n".join(
        line for line in readme.splitlines() if line.startswith("| **")
    )
    assert live <= set(_CODE.findall(table))
