"""Unit helpers and constants.

Conventions (matching the paper's reporting):

* time is in **seconds**;
* sizes are in **bytes**; ``KB``/``MB``/``GB`` are decimal (1e3/1e6/1e9)
  because the paper reports MB/s in decimal megabytes;
* ``KiB``/``MiB`` are available where power-of-two block math is needed.
"""

from __future__ import annotations

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30

US = 1e-6
MS = 1e-3

#: Fast Ethernet wire speed: 100 Mbit/s in bytes per second.
FAST_ETHERNET_BPS = 100e6 / 8


def mb_per_s(bytes_per_second: float) -> float:
    """Convert B/s to MB/s (decimal)."""
    return bytes_per_second / MB


def fmt_time(seconds: float) -> str:
    """Human-readable duration."""
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= MS:
        return f"{seconds / MS:.3f} ms"
    return f"{seconds / US:.1f} us"
