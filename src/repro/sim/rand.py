"""Deterministic named random streams.

Every stochastic model component draws from its own named stream so that
adding a component never perturbs another's draws — a standard DES
variance-reduction / reproducibility technique.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Dict, Sequence

if TYPE_CHECKING:
    import numpy as np


class RandomStreams:
    """A factory of independent, reproducible NumPy generators.

    Streams are keyed by name; the same (seed, name) pair always yields
    the same sequence, independent of creation order.
    """

    def __init__(self, seed: int = 0x5EED):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode()
            ).digest()
            sub_seed = int.from_bytes(digest[:8], "little")
            # numpy loads on the first draw: runs that draw nothing
            # (the Fig. 5 grid, Andrew) never import it.
            import numpy as np

            gen = np.random.default_rng(sub_seed)
            self._streams[name] = gen
        return gen

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw from stream ``name``."""
        return float(self.stream(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean."""
        return float(self.stream(name).exponential(mean))

    def integers(self, name: str, low: int, high: int) -> int:
        """One integer draw in [low, high)."""
        return int(self.stream(name).integers(low, high))

    def choice(self, name: str, seq: Sequence[Any]) -> Any:
        """Uniformly choose one element of ``seq``."""
        idx = int(self.stream(name).integers(0, len(seq)))
        return seq[idx]
