"""Analytical models and reporting: Table 2, scalability, ASCII tables."""

from repro.analysis.bottleneck import (
    ResourceUsage,
    bottleneck,
    resource_usage,
    usage_table,
)
from repro.analysis.peak import PeakModel, peak_table, FORMULAS
from repro.analysis.scalability import (
    improvement_factor,
    scaling_efficiency,
)
from repro.analysis.report import render_series, render_table

__all__ = [
    "FORMULAS",
    "PeakModel",
    "ResourceUsage",
    "bottleneck",
    "resource_usage",
    "usage_table",
    "improvement_factor",
    "peak_table",
    "render_series",
    "render_table",
    "scaling_efficiency",
]
