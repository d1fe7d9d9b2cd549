"""Observability for the maintenance pipeline: traces, metrics, audit.

The paper proves *per-append cost guarantees* (Theorems 4.2-4.5); this
package makes them observable on a live system instead of only checkable
offline through benchmark counter diffs:

* :mod:`~repro.obs.tracer` — span trees per append event
  (``append`` → ``prefilter`` → per-view ``maintain`` → per-operator
  ``delta``), each span carrying wall time and a
  :class:`~repro.complexity.counters.CostCounters` diff; bounded ring
  buffer, JSON-lines export;
* :mod:`~repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms keyed by (view, chronicle, operator), exportable as a
  dict, JSON, or Prometheus text;
* :mod:`~repro.obs.auditor` — the live no-chronicle-access check:
  ``chronicle_read == 0`` and ``view_read`` bounded per maintenance
  span, in ``warn`` or ``raise`` mode;
* :mod:`~repro.obs.runtime` — the module-level no-op fast path that
  keeps all of it zero-cost when disabled.

Quickstart::

    from repro import ChronicleDatabase

    db = ChronicleDatabase(observe=True)      # installs observability
    ...
    db.observability.tracer.last().format()   # the latest append trace
    db.observability.metrics.to_prometheus()  # scrapeable metrics
"""

from .auditor import AuditViolation, AuditWarning, Auditor
from .core import Observability
from .costmodel import CostEntry, CostLedger, span_probes, span_work
from .exporters import (
    AttributionNode,
    JsonlSpanSink,
    attribution_tree,
    format_attribution,
)
from .health import (
    HealthCheck,
    HealthReport,
    SloPolicy,
    evaluate_health,
)
from .metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .recorder import FlightRecorder, summarize_span
from .runtime import get as get_observability
from .tracer import Span, Tracer

#: Conformance symbols are loaded lazily (PEP 562): this package is
#: imported by the core hot-path modules for the runtime slot, and the
#: profiler imports the algebra layer — an eager import would cycle.
#: ``MetricsServer`` is lazy too: only a process that serves should pay
#: for :mod:`http.server`.
_CONFORMANCE_EXPORTS = (
    "ConformanceCertificate",
    "ConformanceProfiler",
    "SweepVerdict",
    "certify_expression",
    "schema_record_factory",
)

def __getattr__(name: str):
    if name in _CONFORMANCE_EXPORTS:
        from . import conformance

        return getattr(conformance, name)
    if name == "MetricsServer":
        from .server import MetricsServer

        return MetricsServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AttributionNode",
    "AuditViolation",
    "AuditWarning",
    "Auditor",
    "ConformanceCertificate",
    "ConformanceProfiler",
    "CostEntry",
    "CostLedger",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "HealthCheck",
    "HealthReport",
    "Histogram",
    "JsonlSpanSink",
    "MetricsRegistry",
    "MetricsServer",
    "Observability",
    "SloPolicy",
    "Span",
    "SweepVerdict",
    "Tracer",
    "attribution_tree",
    "certify_expression",
    "evaluate_health",
    "format_attribution",
    "get_observability",
    "schema_record_factory",
    "span_probes",
    "span_work",
    "summarize_span",
]
