"""Per-piece execution context threaded through the block-I/O stack.

One :class:`PieceContext` rides along with each physical block
operation the execution engine issues, replacing the ad-hoc ``trace=``
argument plumbing: the CDD and the transport resolve the trace id from
the context when no explicit one is given, and the engine's degraded
retry loop keeps its attempt count and retry budget here instead of in
loop-local variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class PieceContext:
    """Context travelling with one physical block operation."""

    #: Logical-request trace id (spans of every hop tag themselves
    #: with it); ``None`` when tracing is disabled.
    trace: Optional[int] = None
    #: Plan-step label: the role of this op in its plan
    #: ("data" / "parity" / "mirror" / "reconstruct").
    step: str = "data"
    #: Retry number for degraded reads (0 = first issue).
    attempt: int = 0
    #: Maximum retries before the engine gives up re-sourcing a read;
    #: ``None`` = unbounded (each retry marks a new disk failed, so the
    #: loop terminates regardless).
    retry_budget: Optional[int] = None

    @property
    def exhausted(self) -> bool:
        """True when the retry budget is spent."""
        return (
            self.retry_budget is not None
            and self.attempt >= self.retry_budget
        )
