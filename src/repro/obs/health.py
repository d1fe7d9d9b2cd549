"""Operational health: SLO policies and an OK/DEGRADED/FAILING verdict.

The paper's freshness story — views stay current at bounded per-append
cost — becomes operational here.  A write returns only once every view
it affects is maintained, on every engine and executor, so freshness is
not a gap to watch; what can go wrong is that maintenance becomes slow,
that it reads the chronicle, or that it fails.  This module gives those
first-class types:

* :class:`SloPolicy` — a small frozen declaration of the service-level
  objectives a deployment promises: p99 maintain latency, auditor
  violations, engine errors.  Carried on
  :class:`~repro.core.config.DatabaseConfig` as the ``slo`` field.
* :class:`HealthCheck` / :class:`HealthReport` — one evaluated rule and
  the overall verdict.  :func:`evaluate_health` turns (metrics,
  auditor) × policy into a report.

Verdict semantics are deterministic and documented, not vibes:

* **hard checks** (auditor violations beyond the permitted count,
  engine/worker errors) — any breach is ``FAILING``: a theorem-level
  invariant or a maintenance worker broke, and view state can no longer
  be trusted to be fresh;
* **soft check** (p99 maintain latency) — a breach is ``DEGRADED``:
  maintenance is slow, but views are still current.

The ``/health`` HTTP route (:mod:`repro.obs.exporters`) serves the
report as JSON — 200 for ``OK``/``DEGRADED``, 503 for ``FAILING`` — and
the CLI renders it as ``SHOW HEALTH``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError

#: The three health verdicts, healthiest first.
STATUSES = ("OK", "DEGRADED", "FAILING")


@dataclass(frozen=True)
class SloPolicy:
    """Declarative service-level objectives for one database.

    Every limit is inclusive ("observed <= limit is healthy").  Zero is
    a legal limit — ``max_maintain_p99_seconds=0`` declares that any
    maintenance latency at all breaches, which tests and drills use to
    inject deterministic SLO breaches — and ``float("inf")`` means no
    limit.  NaN is refused: no observation is ``<= nan``, so it would
    breach forever.

    Parameters
    ----------
    max_maintain_p99_seconds:
        Permitted p99 of ``view_maintain_seconds`` across all views
        (soft).
    max_auditor_violations:
        Permitted lifetime auditor violations (hard; default 0 — the
        no-chronicle-access theorem allows none).
    max_engine_errors:
        Permitted shard-worker/engine errors (hard; default 0).
    """

    max_maintain_p99_seconds: float = 0.25
    max_auditor_violations: int = 0
    max_engine_errors: int = 0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(
                    f"SloPolicy.{spec.name} must be a number, got {value!r}"
                )
            if math.isnan(value) or value < 0:
                raise ConfigError(
                    f"SloPolicy.{spec.name} must be >= 0, got {value!r}"
                )

    def as_dict(self) -> Dict[str, Any]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


class HealthCheck:
    """One evaluated SLO rule: what was observed against which limit."""

    __slots__ = ("name", "observed", "limit", "ok", "hard")

    def __init__(
        self, name: str, observed: float, limit: float, hard: bool = False
    ) -> None:
        self.name = name
        self.observed = observed
        self.limit = limit
        self.ok = observed <= limit
        self.hard = hard

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "observed": self.observed,
            "limit": self.limit,
            "hard": self.hard,
        }

    def __repr__(self) -> str:
        state = "ok" if self.ok else "BREACH"
        return f"HealthCheck({self.name}: {self.observed} <= {self.limit} [{state}])"


class HealthReport:
    """The overall verdict plus every check that produced it."""

    __slots__ = ("status", "checks", "policy", "at")

    def __init__(
        self, status: str, checks: Sequence[HealthCheck], policy: SloPolicy
    ) -> None:
        self.status = status
        self.checks: Tuple[HealthCheck, ...] = tuple(checks)
        self.policy = policy
        self.at = time.time()

    @property
    def breaches(self) -> Tuple[HealthCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "at": self.at,
            "checks": [c.as_dict() for c in self.checks],
            "policy": self.policy.as_dict(),
        }

    def format(self) -> str:
        """Human-readable rendering (the CLI's ``SHOW HEALTH``)."""
        lines = [f"health: {self.status}"]
        for check in self.checks:
            mark = "ok" if check.ok else ("FAIL" if check.hard else "degraded")
            lines.append(
                f"  [{mark:>8}] {check.name}: "
                f"observed {check.observed:g} (limit {check.limit:g})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"HealthReport({self.status!r}, breaches={len(self.breaches)})"


def evaluate_health(observability: Any, policy: Optional[SloPolicy] = None) -> HealthReport:
    """Evaluate *policy* against one observability handle's state.

    Reads the merged ``view_maintain_seconds`` p99, the auditor's
    violation count and the ``engine_errors_total`` counter.  Verdict:
    any hard breach is ``FAILING``; otherwise a soft breach is
    ``DEGRADED``.
    """
    policy = policy if policy is not None else SloPolicy()
    metrics = observability.metrics
    merged = metrics.merged_histogram("view_maintain_seconds")
    p99 = merged.quantile(0.99) if merged is not None and merged.count else 0.0
    checks: List[HealthCheck] = [
        HealthCheck("maintain_p99_seconds", p99, policy.max_maintain_p99_seconds),
        HealthCheck(
            "auditor_violations",
            len(observability.auditor.violations),
            policy.max_auditor_violations,
            hard=True,
        ),
        HealthCheck(
            "engine_errors",
            metrics.value("engine_errors_total") or 0,
            policy.max_engine_errors,
            hard=True,
        ),
    ]
    if any(c.hard and not c.ok for c in checks):
        status = "FAILING"
    elif any(not c.ok for c in checks):
        status = "DEGRADED"
    else:
        status = "OK"
    return HealthReport(status, checks, policy)
