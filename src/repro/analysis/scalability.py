"""Scalability metrics: improvement factors and scaling efficiency.

The paper's Table 3 reports "achievable I/O bandwidth and improvement
factor" — aggregate bandwidth at 12 clients over 1 client.
"""

from __future__ import annotations

from typing import List, Sequence


def improvement_factor(bw_one_client: float, bw_n_clients: float) -> float:
    """Table 3's improvement metric: BW(N) / BW(1)."""
    if bw_one_client <= 0:
        raise ValueError("baseline bandwidth must be positive")
    return bw_n_clients / bw_one_client


def scaling_efficiency(
    clients: Sequence[int], bandwidth: Sequence[float]
) -> List[float]:
    """Per-point efficiency: (BW(c)/BW(c0)) / (c/c0), 1.0 = linear."""
    if len(clients) != len(bandwidth) or not clients:
        raise ValueError("series must be equal-length and non-empty")
    c0, b0 = clients[0], bandwidth[0]
    if c0 <= 0 or b0 <= 0:
        raise ValueError("baseline point must be positive")
    return [
        (b / b0) / (c / c0) for c, b in zip(clients, bandwidth)
    ]
