"""Live exporters: HTTP routes, JSONL span streams, flame trees.

Three ways out of the process for the observability layer's data, all
stdlib-only:

* :data:`ROUTES` — what the HTTP endpoint
  (:class:`~repro.obs.server.MetricsServer`, imported on the first
  :meth:`~repro.obs.core.Observability.serve`) answers:

  - ``/metrics`` — the Prometheus text exposition format
    (``text/plain; version=0.0.4``), straight from
    :meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus`;
  - ``/certificates`` — the conformance certificates
    (:mod:`repro.obs.conformance`) as JSON;
  - ``/costs`` — the live :class:`~repro.obs.costmodel.CostLedger`
    (certificates stamped) as JSON;
  - ``/health`` — the :class:`~repro.obs.health.HealthReport` as JSON
    (status 200 for ``OK``/``DEGRADED``, 503 for ``FAILING`` — load
    balancers and probes key off the status code alone).

  Trajectories come from scraping ``/metrics``: every series is a
  counter, histogram or gauge there.  A new endpoint is one
  ``@route("/path")`` function of the handle, not another branch in
  the handler.

* :class:`JsonlSpanSink` — streams every completed trace (root span
  tree) to a JSON-lines file as it finishes, with size-based rotation
  (``spans.jsonl`` → ``spans.jsonl.1`` → …).  Attach with
  :meth:`~repro.obs.core.Observability.add_span_listener`; unlike
  :meth:`~repro.obs.tracer.Tracer.export_jsonl` this is not bounded by
  the ring buffer — it sees every trace, live.

* :func:`attribution_tree` / :func:`format_attribution` — a flame-style
  cost-attribution tree: spans from many traces aggregated by position
  (``append → maintain view=v0 → delta op=Select``), each node carrying
  total wall time and summed cost counters, rendered as an indented
  text tree with percent-of-root annotations.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .tracer import Span

#: Attributes that identify a span within its parent (other attrs —
#: row counts, skip counts — are measurements, not identity).
_IDENTITY_ATTRS = (
    "view",
    "operator",
    "engine",
    "group",
    "chronicle",
    "shard",
)


# ---------------------------------------------------------------------------
# HTTP routes
# ---------------------------------------------------------------------------

#: A route returns ``(status, content_type, body)`` for one GET.
Route = Callable[[Any], Tuple[int, str, bytes]]

#: The exporter's route table: normalized path -> handler.  New
#: endpoints register themselves with :func:`route`; the request
#: handler is one dict hit, never a growing if/elif chain.
ROUTES: Dict[str, Route] = {}


def route(path: str) -> Callable[[Route], Route]:
    """Register *path* in :data:`ROUTES` (module-import time)."""

    def register(func: Route) -> Route:
        ROUTES[path] = func
        return func

    return register


def _json_reply(payload: Any, status: int = 200) -> Tuple[int, str, bytes]:
    body = json.dumps(payload, sort_keys=True, indent=2, default=str).encode(
        "utf-8"
    )
    return status, "application/json", body


@route("/metrics")
def _metrics_route(obs: Any) -> Tuple[int, str, bytes]:
    body = obs.metrics.to_prometheus().encode("utf-8")
    return 200, "text/plain; version=0.0.4; charset=utf-8", body


@route("/certificates")
def _certificates_route(obs: Any) -> Tuple[int, str, bytes]:
    return _json_reply(obs.certificates)


@route("/costs")
def _costs_route(obs: Any) -> Tuple[int, str, bytes]:
    return _json_reply(obs.cost_snapshot())


@route("/health")
def _health_route(obs: Any) -> Tuple[int, str, bytes]:
    try:
        report = obs.health()
        payload = report.as_dict()
        status = 503 if report.status == "FAILING" else 200
    except Exception as exc:
        # A probe endpoint must answer even when evaluation breaks —
        # an unanswerable /health reads as down anyway.
        payload = {"status": "FAILING", "error": repr(exc)}
        status = 503
    return _json_reply(payload, status)


# ---------------------------------------------------------------------------
# JSONL span streaming
# ---------------------------------------------------------------------------


class JsonlSpanSink:
    """Streams completed traces to a rotating JSON-lines file.

    A span listener (for :meth:`~repro.obs.core.Observability
    .add_span_listener`): called with every finished span, it writes the
    **root** spans — whole trace trees — one JSON object per line.  When
    the current file would exceed *max_bytes* it is rotated aside
    (``path`` → ``path.1`` → ``path.2`` …, oldest dropped beyond
    *max_files* rotated files), so a long-running process keeps a
    bounded window of recent traces on disk.
    """

    def __init__(
        self, path: str, max_bytes: int = 1_000_000, max_files: int = 3
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if max_files < 0:
            raise ValueError("max_files must be >= 0")
        self.path = path
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.written = 0  # traces written over the sink's lifetime
        self.rotations = 0
        self._lock = threading.Lock()
        self._closed = False
        self._size = os.path.getsize(path) if os.path.exists(path) else 0
        self._handle = open(path, "a")

    @property
    def closed(self) -> bool:
        return self._closed

    def __call__(self, span: Span) -> None:
        if not span.is_root:
            return
        line = json.dumps(span.to_dict(), sort_keys=True) + "\n"
        with self._lock:
            if self._closed:
                return
            if self._size and self._size + len(line) > self.max_bytes:
                self._rotate()
            self._handle.write(line)
            self._handle.flush()
            self._size += len(line)
            self.written += 1

    def _rotate(self) -> None:
        self._handle.close()
        # Shift path.N-1 → path.N from the oldest down, then path → path.1.
        oldest = f"{self.path}.{self.max_files}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for n in range(self.max_files - 1, 0, -1):
            src = f"{self.path}.{n}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{n + 1}")
        if self.max_files:
            os.replace(self.path, f"{self.path}.1")
        else:
            os.remove(self.path)
        self._handle = open(self.path, "a")
        self._size = 0
        self.rotations += 1

    def close(self) -> None:
        """Stop writing and release the file handle (idempotent).

        A closed sink left attached as a span listener becomes a no-op;
        it never raises into the maintenance path.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._handle.closed:
                self._handle.close()


# ---------------------------------------------------------------------------
# Flame-style cost attribution
# ---------------------------------------------------------------------------


class AttributionNode:
    """Aggregate of every span sharing one position in the trace tree."""

    __slots__ = ("label", "count", "seconds", "counters", "children")

    def __init__(self, label: str) -> None:
        self.label = label
        self.count = 0
        self.seconds = 0.0
        self.counters: Dict[str, int] = {}
        self.children: Dict[str, "AttributionNode"] = {}

    def add(self, span: Span) -> None:
        self.count += 1
        self.seconds += span.duration
        for event, amount in span.counters.items():
            self.counters[event] = self.counters.get(event, 0) + amount

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "label": self.label,
            "count": self.count,
            "seconds": self.seconds,
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [
                child.to_dict() for child in self.children.values()
            ]
        return out


def _span_label(span: Span) -> str:
    parts = [span.name]
    for attr in _IDENTITY_ATTRS:
        value = span.attrs.get(attr)
        if value is not None:
            parts.append(f"{attr}={value}")
    return " ".join(parts)


def attribution_tree(traces: Sequence[Span]) -> AttributionNode:
    """Aggregate many traces into one position-keyed cost tree.

    Spans merge when their path of (name + identity attrs) labels from
    the root matches — all ``maintain view=v0`` spans across all traces
    become one node, its counters and wall time summed.  Pass
    ``tracer.traces()`` (or any list of root spans).
    """
    root = AttributionNode("total")
    for trace in traces:
        _merge(root, trace)
    return root


def _merge(parent: AttributionNode, span: Span) -> None:
    label = _span_label(span)
    node = parent.children.get(label)
    if node is None:
        node = parent.children[label] = AttributionNode(label)
    node.add(span)
    for child in span.children:
        _merge(node, child)


def format_attribution(
    traces: Sequence[Span], counter: Optional[str] = None
) -> str:
    """Render the attribution tree as indented text, heaviest first.

    Each line shows the position label, its share of the root's cost
    (wall time by default, or one counter event via *counter*), the
    absolute amount, and the span count — a text flame graph::

        append group=default              100.0%  12,340us  n=100
          maintain view=balance engine=compiled   62.1% ...
            delta operator=Select engine=compiled ...

    A parent's cost includes its children's (scopes nest additively),
    so sibling percentages sum to at most their parent's.
    """
    root = attribution_tree(traces)
    if not root.children:
        return "(no traces)"

    def cost(node: AttributionNode) -> float:
        if counter is None:
            return node.seconds
        return float(node.counters.get(counter, 0))

    total = sum(cost(child) for child in root.children.values()) or 1.0
    unit = counter if counter is not None else "us"
    lines: List[str] = []

    def render(node: AttributionNode, indent: int) -> None:
        amount = cost(node)
        value = amount * 1e6 if counter is None else amount
        lines.append(
            "  " * indent
            + f"{node.label}  {100.0 * amount / total:.1f}%  "
            + f"{value:,.0f}{unit}  n={node.count}"
        )
        for child in sorted(node.children.values(), key=cost, reverse=True):
            render(child, indent + 1)

    for child in sorted(root.children.values(), key=cost, reverse=True):
        render(child, 0)
    return "\n".join(lines)
