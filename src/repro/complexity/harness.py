"""Report formatting for the experiments.

Every benchmark in ``benchmarks/`` prints its deliverable as a
fixed-width table of one row per swept parameter value.  The sweeps
that *certify* a cost claim live in :mod:`repro.obs.conformance`.
"""

from __future__ import annotations

from typing import Any, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width ASCII table (the benches' printed deliverable)."""
    rendered: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return f"{value:.3e}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
