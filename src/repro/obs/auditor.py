"""The live no-chronicle-access auditor.

The paper's per-append guarantees rest on one mechanical property:
incremental maintenance never reads a chronicle store (Theorems
4.2/4.4), and touches a materialized view only through the O(log |V|)
locate step.  The library already *enforces* the first half with the
:func:`~repro.core.chronicle.maintenance_guard` — but the guard only
covers the guarded read methods.  Code that reaches around them (a
future operator iterating ``chronicle._stored`` directly, an extension
evaluated with ``allow_chronicle_access`` leaking onto the hot path)
would violate the theorem silently.

The auditor closes that gap observationally: every ``maintain`` span's
:class:`~repro.complexity.counters.CostCounters` diff is checked against
the invariants

* ``chronicle_read == 0`` — the no-access rule, live;
* ``view_read <= VIEW_READ_LIMIT`` (0) — reads beyond the permitted
  locate step stay bounded: the counter is *defined* as "reads other
  than the locate step", so any count is a violation.

Violations are recorded (the last :data:`VIOLATIONS_KEPT`), counted in
the metrics registry, and — depending on the mode — ignored (``"off"``), reported
as warnings (``"warn"``), or raised as
:class:`~repro.errors.MaintenanceAuditError` (``"raise"``), turning the
theorem into a deployable assertion.

The auditor reads the counter diffs the tracer collects, so it is only
live while tracing is enabled (and while
:data:`~repro.complexity.counters.GLOBAL_COUNTERS` is enabled —
benchmarks that disable counting also blind the auditor, by design).
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Any, Deque, Dict, List, Optional, TYPE_CHECKING

from ..errors import MaintenanceAuditError, ObservabilityError

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry
    from .tracer import Span

MODES = ("off", "warn", "raise")

#: Most ``view_read`` counts a maintenance span may show.
VIEW_READ_LIMIT = 0

#: How many violation records an auditor retains.
VIOLATIONS_KEPT = 128


class AuditWarning(UserWarning):
    """Emitted for invariant violations in ``warn`` mode."""


class AuditViolation:
    """One observed breach of a maintenance invariant."""

    __slots__ = ("rule", "span_name", "attrs", "observed", "limit")

    def __init__(
        self, rule: str, span: "Span", observed: int, limit: int
    ) -> None:
        self.rule = rule
        self.span_name = span.name
        self.attrs = dict(span.attrs)
        self.observed = observed
        self.limit = limit

    def describe(self) -> str:
        where = ", ".join(f"{k}={v}" for k, v in self.attrs.items())
        return (
            f"{self.rule}: observed {self.observed} (limit {self.limit}) "
            f"in span {self.span_name!r}" + (f" [{where}]" if where else "")
        )

    def __repr__(self) -> str:
        return f"AuditViolation({self.describe()})"


class Auditor:
    """Checks maintenance spans against the paper's cost invariants.

    Parameters
    ----------
    mode:
        ``"off"``, ``"warn"`` (default), or ``"raise"``.
    metrics:
        Optional registry receiving ``audit_violations_total{rule=...}``.
    """

    def __init__(
        self, mode: str = "warn", metrics: Optional["MetricsRegistry"] = None
    ) -> None:
        if mode not in MODES:
            raise ObservabilityError(
                f"unknown audit mode {mode!r}; expected one of {MODES}"
            )
        self.mode = mode
        self.metrics = metrics
        self.violations: Deque[AuditViolation] = deque(maxlen=VIOLATIONS_KEPT)
        self.checked_spans = 0

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def check_span(self, span: "Span") -> List[AuditViolation]:
        """Audit one finished maintenance span; returns the violations."""
        if self.mode == "off":
            return []
        self.checked_spans += 1
        counters = span.counters
        found: List[AuditViolation] = []
        chronicle_reads = counters.get("chronicle_read", 0)
        if chronicle_reads:
            found.append(
                AuditViolation("no-chronicle-access", span, chronicle_reads, 0)
            )
        view_reads = counters.get("view_read", 0)
        if view_reads > VIEW_READ_LIMIT:
            found.append(
                AuditViolation("bounded-view-read", span, view_reads, VIEW_READ_LIMIT)
            )
        for violation in found:
            self._report(violation)
        return found

    def _report(self, violation: AuditViolation) -> None:
        self.violations.append(violation)
        if self.metrics is not None:
            self.metrics.inc(
                "audit_violations_total",
                rule=violation.rule,
            )
            # Per-view face of the same signal: lets a dashboard alert on
            # *which* view misbehaved (and in what mode), not just how
            # often some rule fired.  Warn-mode violations would
            # otherwise be invisible to a /metrics scrape that doesn't
            # know the rule names.
            self.metrics.inc(
                "auditor_violations_total",
                view=str(violation.attrs.get("view", "?")),
                mode=self.mode,
            )
        if self.mode == "raise":
            raise MaintenanceAuditError(violation.describe())
        warnings.warn(violation.describe(), AuditWarning, stacklevel=4)

    def summary(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "checked_spans": self.checked_spans,
            "violations": len(self.violations),
        }
