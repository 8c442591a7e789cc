"""Layer map and host self-time ledger for the traced benchmark run.

Layers are the packages of ``repro.lint.rules_arch.ALLOWED_IMPORTS``
(the ARCH001 layer table), with ``cluster`` split three ways:

* ``cluster.engine``       plan execution: ``engine.py``, ``systems.py``;
* ``cluster.cache_stage``  the buffer-cache timing stage;
* ``cluster.cdd``          CDD plumbing: ``cdd.py``, ``transport.py``,
  ``sios.py``, ``manager.py``, ``consistency.py``, ``message.py``, plus
  the assembly (``cluster.py``) and monitoring modules they wire.

The base modules (``units``, ``errors``, ``config``) have no layer of
their own and count as ``other``, as does every function that is not
``repro`` code and was not called directly from a layer (the driver,
interpreter start-up leftovers, deep stdlib/numpy chains).

Self time comes from the stdlib profiler: :func:`fold` sums each
function's *self* time into the layer of the module that defines it.
Builtins and non-``repro`` functions are charged to their direct
callers' layers, split by the per-caller time the profiler records, so
a heap push made by the kernel counts as kernel time.  Generator
functions driven by the kernel (``ExecutionEngine.run``,
``CooperativeDiskDriver.block_io``, ``CacheStage.run_request``, ...)
are timed per resumption, because the profiler enters and leaves their
frame on every ``send``.
"""

from __future__ import annotations

import cProfile
import os
from collections import defaultdict
from typing import Dict, Optional

_CLUSTER_SPLIT = {
    "engine": "cluster.engine",
    "systems": "cluster.engine",
    "cache_stage": "cluster.cache_stage",
    "cdd": "cluster.cdd",
    "transport": "cluster.cdd",
    "sios": "cluster.cdd",
    "manager": "cluster.cdd",
    "consistency": "cluster.cdd",
    "message": "cluster.cdd",
    "cluster": "cluster.cdd",
    "monitoring": "cluster.cdd",
    "__init__": "cluster.cdd",
}

#: Layers whose self time the traced run reports.  The remaining
#: ``ALLOWED_IMPORTS`` packages (checkpoint, fault, analysis, bench,
#: lint) are mapped too but no workload reaches them; any time they do
#: take is folded into ``other`` so it still shows.
REPORTED = (
    "sim", "hardware", "io", "raid", "cache", "fs", "workloads", "obs",
    "cluster.engine", "cluster.cache_stage", "cluster.cdd", "other",
)


class UnmappedModule(LookupError):
    """A ``repro`` module that the layer map does not cover."""


class LayerMap:
    """Maps source files under ``<src>/repro`` to layer names."""

    def __init__(self, src_root: str):
        from repro.lint.core import BASE_MODULES
        from repro.lint.rules_arch import ALLOWED_IMPORTS

        self.packages = frozenset(ALLOWED_IMPORTS)
        self.base = frozenset(BASE_MODULES)
        self.root = os.path.join(os.path.abspath(src_root), "repro") + os.sep
        self._cache: Dict[str, Optional[str]] = {}

    def module_of(self, filename: str) -> Optional[str]:
        """Dotted ``repro`` module name of a source file, else ``None``."""
        if not filename.startswith(self.root) or not filename.endswith(".py"):
            return None
        rel = filename[len(self.root):-3].split(os.sep)
        return ".".join(["repro", *rel])

    def layer_of_module(self, module: str) -> str:
        """The layer of a dotted ``repro`` module; raises if unmapped."""
        parts = module.split(".")[1:]
        if parts in (["__init__"], []) or (
            len(parts) == 1 and parts[0] in self.base
        ):
            return "other"
        pkg = parts[0]
        if pkg not in self.packages:
            raise UnmappedModule(module)
        if pkg != "cluster":
            return pkg
        if len(parts) != 2 or parts[1] not in _CLUSTER_SPLIT:
            raise UnmappedModule(module)
        return _CLUSTER_SPLIT[parts[1]]

    def layer_of_file(self, filename: str) -> Optional[str]:
        """Layer of a profiled code location; ``None`` if not ``repro``."""
        try:
            return self._cache[filename]
        except KeyError:
            module = self.module_of(filename)
            layer = None if module is None else self.layer_of_module(module)
            self._cache[filename] = layer
            return layer


def fold(profile: cProfile.Profile, layers: LayerMap) -> Dict[str, float]:
    """Self seconds per layer from a finished profile.

    Raises :class:`UnmappedModule` if a profiled ``repro`` module has no
    layer, so new modules cannot silently land in ``other``.
    """
    profile.create_stats()
    out: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in (
        profile.stats.items()
    ):
        layer = layers.layer_of_file(filename)
        if layer is not None:
            out[layer] += tt
            continue
        for (cfile, _cl, _cn), (_cnc, _ccc, ctt, _cct) in callers.items():
            clayer = layers.layer_of_file(cfile)
            if clayer is not None:
                out[clayer] += ctt
    return dict(out)


def ledger(self_s: Dict[str, float], traced_wall: float) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.share`` for every reported layer.

    ``other`` is the traced wall time no reported layer claimed
    (profiler bookkeeping included), so the shares sum to exactly 1.
    """
    claimed = {
        name: self_s.get(name, 0.0) for name in REPORTED if name != "other"
    }
    claimed_total = sum(claimed.values())
    if claimed_total > traced_wall * 1.001:
        raise ValueError(
            f"layers claim {claimed_total:.3f}s of a "
            f"{traced_wall:.3f}s traced wall"
        )
    claimed["other"] = max(0.0, traced_wall - claimed_total)
    out: Dict[str, float] = {}
    for name in REPORTED:
        out[f"{name}.self_s"] = claimed[name]
        out[f"{name}.share"] = (
            claimed[name] / traced_wall if traced_wall > 0 else 0.0
        )
    return out
