"""FF rules: the fast-forward legality contract.

The fixtures model the contract with small stand-in classes (the GUARDED
table keys sites by ``Class.method``, module-agnostic on purpose).  The
load-bearing cases: a guard-state write from an un-owned site (FF001 —
invisible to any per-function analysis when laundered through a helper),
truncation and set-order reductions inside pricing functions
(FF002/FF003), and arming ``ff_preload`` without an ``ff_ready`` check
anywhere upstream (FF004).
"""

from __future__ import annotations

import textwrap

from tests.lint.util import codes
from repro.lint import lint_sources


def lint(sources: dict):
    return lint_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()},
        select=["FF"],
    )


def test_guard_mutation_from_unowned_site_fires():
    findings = lint({
        "repro.hardware.disk2": """
            class Disk:
                def __init__(self):
                    self._ff_parked = False

                def reset(self):
                    self._ff_parked = False
            """,
    })
    assert codes(findings) == {"FF001"}
    (f,) = findings
    assert "Disk.reset" in f.message
    assert "_ff_parked" in f.message


def test_guard_mutation_from_owning_sites_is_silent():
    findings = lint({
        "repro.hardware.disk2": """
            class Disk:
                def __init__(self):
                    self._ff_parked = False
                    self._pending = []

                def submit(self, req):
                    self._pending.append(req)
                    self._ff_parked = True
            """,
    })
    assert findings == []


def test_helper_called_only_from_owners_is_legal():
    # Refactoring a guard owner into a private helper must not trip the
    # rule: the helper joins the guarded closure.
    findings = lint({
        "repro.hardware.disk2": """
            class Disk:
                def _ff_next(self):
                    self._unpark()

                def _unpark(self):
                    self._ff_parked = False
            """,
    })
    assert findings == []


def test_helper_with_one_unowned_caller_fires():
    # The acceptance fixture: an FF guard bypass the intraprocedural
    # analyzer cannot see — the mutation lives in a helper whose caller
    # set includes a non-owner, so the closure excludes it.
    findings = lint({
        "repro.hardware.disk2": """
            class Disk:
                def _ff_next(self):
                    self._unpark()

                def poke(self):
                    self._unpark()

                def _unpark(self):
                    self._ff_parked = False
            """,
    })
    assert codes(findings) == {"FF001"}
    (f,) = findings
    assert "Disk._unpark" in f.message


def test_mutator_method_call_and_subscript_write_fire():
    findings = lint({
        "repro.raid.mirror2": """
            class MirrorState:
                def __init__(self):
                    self.dirty_groups = set()

            class Scrubber:
                def mark(self, ms, g):
                    ms.dirty_groups.add(g)

                def patch(self, engine, key, plan):
                    engine._ff_plans[key] = plan
            """,
    })
    assert codes(findings) == {"FF001"}
    assert len(findings) == 2


def test_module_level_mutation_is_never_legal():
    findings = lint({
        "repro.hardware.disk2": """
            STATE = {}
            STATE["x"] = object()
            STATE["x"]._ff_parked = True
            """,
    })
    assert codes(findings) == {"FF001"}
    assert "module level" in findings[0].message


def test_floor_division_in_pricing_function_fires():
    findings = lint({
        "repro.hardware.disk2": """
            class Disk:
                def _ff_step(self, n):
                    return n // 2
            """,
    })
    assert codes(findings) == {"FF002"}
    assert "floor division" in findings[0].message


def test_int_call_in_pricing_function_fires():
    findings = lint({
        "repro.io.node2": """
            class Node:
                def try_fast_forward(self, t):
                    return int(t) + 1.0
            """,
    })
    assert codes(findings) == {"FF002"}
    assert "int()" in findings[0].message


def test_truncation_feeding_a_subscript_is_exempt():
    # Geometry indexing is integral by nature — int() inside a subscript
    # slice is not a priced quantity.
    findings = lint({
        "repro.io.node2": """
            class Node:
                def try_fast_forward(self, t):
                    return self.table[int(t) % 4] * 2.0
            """,
    })
    assert findings == []


def test_float_arithmetic_in_pricing_function_is_silent():
    findings = lint({
        "repro.hardware.disk2": """
            class Disk:
                def _ff_step(self, n):
                    return n / 2.0 + self.seek_ms
            """,
    })
    assert findings == []


def test_truncation_outside_pricing_functions_is_silent():
    findings = lint({
        "repro.hardware.disk2": """
            class Disk:
                def capacity_blocks(self, bytes_):
                    return bytes_ // 512
            """,
    })
    assert findings == []


def test_sum_over_set_in_pricing_function_fires():
    findings = lint({
        "repro.io.node2": """
            class Node:
                def ff_price(self, xs):
                    return sum({x * 2.0 for x in xs})
            """,
    })
    assert codes(findings) == {"FF003"}
    assert "sum() over a set" in findings[0].message


def test_iteration_over_set_in_pricing_function_fires():
    findings = lint({
        "repro.io.node2": """
            class Node:
                def ff_price(self, xs):
                    total = 0.0
                    for x in set(xs):
                        total += x
                    return total
            """,
    })
    assert codes(findings) == {"FF003"}
    assert "iteration over a set" in findings[0].message


def test_sum_over_list_in_pricing_function_is_silent():
    findings = lint({
        "repro.io.node2": """
            class Node:
                def ff_price(self, xs):
                    return sum([x * 2.0 for x in xs])
            """,
    })
    assert findings == []


def test_phase_inflight_write_from_unowned_site_fires():
    # The fast path's in-flight veto reads phase_inflight at submit; a
    # write from outside the submit path (here a cache stage resetting
    # it) breaks the veto.
    findings = lint({
        "repro.cluster.stage2": """
            class CacheStage:
                def reset(self, engine, client):
                    engine.phase_inflight[client] = 0
            """,
    })
    assert codes(findings) == {"FF001"}
    (f,) = findings
    assert "phase_inflight" in f.message
    assert "CacheStage.reset" in f.message


def test_phase_inflight_write_from_owning_sites_is_silent():
    findings = lint({
        "repro.cluster.systems2": """
            class ExecutionEngine:
                def __init__(self, n):
                    self.phase_inflight = [0] * n

            class DistributedArraySystem:
                def submit(self, client):
                    self.engine.phase_inflight[client] += 1
            """,
    })
    assert findings == []


def test_truncation_in_submit_twin_fires():
    # The submit-time twins are pricing functions even though they sit
    # outside the ff_ naming family.
    findings = lint({
        "repro.cluster.engine2": """
            class ExecutionEngine:
                def try_fast_submit(self, nbytes):
                    return nbytes // 2 / self.rate
            """,
    })
    assert codes(findings) == {"FF002"}
    assert "try_fast_submit" in findings[0].message


def test_float_submit_twin_is_silent():
    findings = lint({
        "repro.cluster.engine2": """
            class ExecutionEngine:
                def try_fast_submit(self, nbytes):
                    return nbytes / self.rate + self.overhead_s
            """,
    })
    assert findings == []


def test_link_reserve_owns_free_at_writes():
    # Every reservation, the fast-forward's eager claims included, books
    # through BandwidthLink._reserve: the claim helpers only call it.
    findings = lint({
        "repro.sim.shared2": """
            class BandwidthLink:
                def _reserve(self, nbytes, stretch, at):
                    start = max(at, self._free_at)
                    self._free_at = start + nbytes / self.rate
                    return self._free_at - at
            """,
        "repro.hardware.node2": """
            class Node:
                def ff_claim_scsi(self, t1, nbytes):
                    return t1 + self.scsi._link._reserve(nbytes, 0.0, t1)
            """,
    })
    assert findings == []


def test_free_at_write_in_claim_helper_fires():
    findings = lint({
        "repro.hardware.node2": """
            class Node:
                def ff_claim_scsi(self, t1, nbytes):
                    link = self.scsi._link
                    link._free_at = t1 + nbytes / link.rate
                    return link._free_at
            """,
    })
    assert codes(findings) == {"FF001"}
    assert "ff_claim_scsi" in findings[0].message


def test_kernel_releases_hold_outstanding():
    # The kernel's dispatch owns a hold's release (DESIGN 6.19); any
    # other Environment method decrementing a link count is flagged.
    findings = lint({
        "repro.sim.core2": """
            class Environment:
                def run(self, event):
                    event.link.outstanding -= 1

                def peek(self, event):
                    event.link.outstanding -= 1
            """,
    })
    assert codes(findings) == {"FF001"}
    assert len(findings) == 1 and "Environment.peek" in findings[0].message


def test_preload_without_guard_fires():
    findings = lint({
        "repro.io.node2": """
            class Node:
                def kick(self, disk):
                    disk.ff_preload(5)
            """,
    })
    assert codes(findings) == {"FF004"}
    assert "kick()" in findings[0].message


def test_preload_behind_direct_guard_is_silent():
    findings = lint({
        "repro.io.node2": """
            class Node:
                def kick(self, disk):
                    if disk.ff_ready:
                        disk.ff_preload(5)
            """,
    })
    assert findings == []


def test_preload_in_helper_guarded_by_sole_caller_is_silent():
    # The guard lives one level up; the helper is only reachable through
    # the guarded caller, so it joins the closure.
    findings = lint({
        "repro.io.node2": """
            class Node:
                def kick(self, disk):
                    if disk.ff_ready:
                        self._arm(disk)

                def _arm(self, disk):
                    disk.ff_preload(5)
            """,
    })
    assert findings == []
