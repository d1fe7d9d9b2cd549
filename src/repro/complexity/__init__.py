"""Measurement kit: cost counters, complexity fitting, report tables."""

from .counters import GLOBAL_COUNTERS, CostCounters
from .fitting import (
    Fit,
    FitResult,
    GrowthClass,
    classify_growth,
    fit_series,
    is_flat,
    median,
)
from .harness import format_table

__all__ = [
    "CostCounters",
    "GLOBAL_COUNTERS",
    "classify_growth",
    "fit_series",
    "Fit",
    "FitResult",
    "GrowthClass",
    "is_flat",
    "median",
    "format_table",
]
