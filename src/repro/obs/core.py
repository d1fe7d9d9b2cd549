"""The :class:`Observability` façade: tracer + metrics + auditor.

One instance bundles the three surfaces and bridges them.  Code outside
this package reaches it one way: it opens spans on the handle published
in :mod:`repro.obs.runtime` and sets attributes on them.  Every metric
comes from this module, from one of three sources:

* **spans** — :data:`SPAN_RULES`, one ``{span name: rule}`` table.
  :meth:`Observability.on_span_end` feeds each finished span to the rule
  for its name, which derives counters and histograms from the span's
  attributes, duration and cost counters;
* **incidents** — :data:`INCIDENT_COUNTERS`: an incident raised with
  ``failure=True`` (the engine's and recovery's own error sites) counts
  its reason's counter;
* **state** — :meth:`Observability.collect` reads the series that mirror
  database state (appended and stored rows) off the bound database
  whenever a reader takes :attr:`Observability.metrics`; nothing pushes
  them.

Adding a metric is one row here, never a call in a hot-path module;
``docs/observability.md`` lists every family with its source.  The
attributes the rules read are the contract with the hooks: ``admitted``
(``{chronicle: records}``) on the facade's ``append``, ``candidates`` /
``skipped`` on ``prefilter``, ``records`` on ``shard_apply``, ``bytes``
on ``wal_append``, ``bytes`` / ``truncated`` / ``kind`` on a written
``snapshot``, ``replayed_batches`` on a finished ``recovery``, ``view``
on ``drop_view``.  A span without the attribute its rule is gated on
(the operation raised) counts nothing.

Installing the instance (:meth:`install`, or
``ChronicleDatabase(observe=True)``) publishes it to
:mod:`repro.obs.runtime`, which is the only thing the hot-path hooks
ever look at — so constructing an Observability costs nothing until it
is installed, and uninstalling restores the zero-overhead no-op path.
Span-listener exceptions are swallowed and counted
(``span_listener_errors_total{listener}``) so a broken exporter can
never abort the maintenance path.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..errors import MaintenanceAuditError, ObservabilityError
from . import runtime
from .auditor import Auditor
from .costmodel import CostLedger
from .health import HealthReport, SloPolicy, evaluate_health
from .metrics import MetricsRegistry
from .recorder import FlightRecorder, summarize_span
from .tracer import Span, Tracer

# ---------------------------------------------------------------------------
# The span table
# ---------------------------------------------------------------------------


def _append(obs: "Observability", span: Span) -> None:
    metrics, group = obs._metrics, str(span.attrs.get("group", "?"))
    metrics.inc("append_events_total", group=group)
    metrics.observe("append_seconds", span.duration, group=group)
    for event, amount in span.counters.items():
        metrics.inc(f"cost_{event}_total", amount, group=group)
    for chronicle, records in span.attrs.get("admitted", {}).items():
        metrics.inc("chronicle_records_admitted_total", records, chronicle=chronicle)


def _prefilter(obs: "Observability", span: Span) -> None:
    skipped = span.attrs.get("skipped")
    if skipped is None:  # the filter raised
        return
    maintained = span.attrs["candidates"] - skipped
    if skipped:
        obs._metrics.inc("view_prefilter_total", skipped, outcome="hit")
    if maintained:
        obs._metrics.inc("view_prefilter_total", maintained, outcome="miss")


def _maintain(obs: "Observability", span: Span) -> None:
    view = str(span.attrs.get("view", "?"))
    engine = str(span.attrs.get("engine", "?"))
    obs._metrics.inc("view_maintained_total", view=view, engine=engine)
    obs._metrics.observe("view_maintain_seconds", span.duration, view=view, engine=engine)
    obs._last_maintain[view] = span.duration
    # Before the auditor: a raise-mode violation still leaves its cost
    # recorded in the ledger.
    obs.cost_ledger.observe_maintain(span)
    try:
        violations = obs.auditor.check_span(span)
    except MaintenanceAuditError as exc:
        # Raise-mode: freeze the black box before the append aborts —
        # this is exactly the moment the tape matters.
        obs.incident("auditor-violation", error=str(exc), span=summarize_span(span))
        raise
    if violations:
        obs.incident(
            "auditor-violation",
            violations=[v.describe() for v in violations],
            span=summarize_span(span),
        )


def _delta(obs: "Observability", span: Span) -> None:
    operator = str(span.attrs.get("operator", "?"))
    engine = str(span.attrs.get("engine", "?"))
    obs._metrics.inc("operator_invocations_total", operator=operator, engine=engine)
    rows = span.attrs.get("rows")
    if rows:
        obs._metrics.inc("operator_delta_rows_total", rows, operator=operator, engine=engine)


def _ingest(obs: "Observability", span: Span) -> None:
    group = str(span.attrs.get("group", "?"))
    obs._metrics.inc("ingest_windows_total", group=group)
    obs._metrics.observe("ingest_visibility_seconds", span.duration, group=group)


def _shard_apply(obs: "Observability", span: Span) -> None:
    shard = span.attrs.get("shard")
    if shard is None:
        # Never emit an unknown-shard bucket: a missing label is a bug in
        # the emitting hook, counted as such.
        obs._metrics.inc("span_label_missing_total", span="shard_apply")
        return
    shard = str(shard)
    obs._metrics.inc("shard_batches_total", shard=shard)
    obs._metrics.observe("shard_apply_seconds", span.duration, shard=shard)
    records = span.attrs.get("records")
    if records is not None:
        obs._metrics.inc("shard_records_total", records, shard=shard)


def _shard_fallback(obs: "Observability", span: Span) -> None:
    obs._metrics.inc("shard_fallback_total", view=str(span.attrs.get("view", "?")))


def _wal_append(obs: "Observability", span: Span) -> None:
    size = span.attrs.get("bytes")
    if size is None:  # the write raised
        return
    group = str(span.attrs.get("group", "?"))
    obs._metrics.inc("wal_batches_total", group=group)
    obs._metrics.inc("wal_bytes_total", size, group=group)
    obs._metrics.observe("wal_append_seconds", span.duration, group=group)


def _snapshot(obs: "Observability", span: Span) -> None:
    size = span.attrs.get("bytes")
    if size is None:  # nothing was written
        return
    kind = span.attrs["kind"]
    obs._metrics.inc("snapshots_total", kind=kind)
    obs._metrics.set("snapshot_bytes", size, kind=kind)
    obs._metrics.inc("wal_truncated_rows_total", span.attrs["truncated"])
    obs._metrics.observe("snapshot_seconds", span.duration)


def _recovery(obs: "Observability", span: Span) -> None:
    replayed = span.attrs.get("replayed_batches")
    if replayed is None:  # failed: counted by the recovery-failure incident
        return
    obs._metrics.inc("recoveries_total")
    obs._metrics.set("recovery_replayed_batches", replayed)
    obs._metrics.observe("recovery_seconds", span.duration)


def _wal_flush(obs: "Observability", span: Span) -> None:
    obs._metrics.observe("wal_flush_seconds", span.duration)


def _drop_view(obs: "Observability", span: Span) -> None:
    # The dropped view's series stay (counters never shrink); its
    # per-view stats restart, so a view re-defined under the same name
    # reports only its own maintenance.
    view = str(span.attrs.get("view", "?"))
    obs._dropped[view] = obs._maintained().get(view, 0)
    obs._last_maintain.pop(view, None)


#: Span name -> the rule turning one finished span into metrics.
SPAN_RULES: Dict[str, Callable[["Observability", Span], None]] = {
    "append": _append,
    "prefilter": _prefilter,
    "maintain": _maintain,
    "delta": _delta,
    "ingest": _ingest,
    "shard_apply": _shard_apply,
    "shard_fallback": _shard_fallback,
    "wal_append": _wal_append,
    "snapshot": _snapshot,
    "recovery": _recovery,
    "wal_flush": _wal_flush,
    "drop_view": _drop_view,
}

#: Failure incident reasons, and the counter each one feeds.
INCIDENT_COUNTERS: Dict[str, str] = {
    "shard-worker-error": "engine_errors_total",
    "recovery-failure": "recovery_failures_total",
}


class Observability:
    """Tracing, metrics, and auditing for one process.

    An installed handle always traces: spans are how every hook reports.

    Parameters
    ----------
    trace_operators:
        Also record per-operator ``delta`` spans (the deepest, most
        verbose layer; disable to trace only append/view granularity).
    audit:
        Auditor mode: ``"off"``, ``"warn"``, or ``"raise"``.
    ring:
        Trace ring-buffer capacity — also the bound of an incident
        bundle's tape, which is read from that ring.
    slo:
        The :class:`~repro.obs.health.SloPolicy` the ``/health`` route
        and :meth:`health` evaluate against (``None`` — the default
        policy).
    incident_dir:
        Directory where the flight recorder writes incident bundles on
        triggers (auditor violation, shard-worker error, SLO breach).
        ``None`` (the default) never touches disk automatically; explicit
        :meth:`incident`/``dump_incident(path=...)`` calls still work.
    """

    def __init__(
        self,
        trace_operators: bool = True,
        audit: str = "warn",
        ring: int = 256,
        slo: Optional[SloPolicy] = None,
        incident_dir: Optional[str] = None,
    ) -> None:
        if not isinstance(trace_operators, bool):
            raise ObservabilityError(
                f"trace_operators must be a bool, got {trace_operators!r}"
            )
        if not isinstance(ring, int) or isinstance(ring, bool) or ring < 1:
            raise ObservabilityError(f"ring must be an int >= 1, got {ring!r}")
        # Written by the span rules; read through :attr:`metrics`.
        self._metrics = MetricsRegistry()
        self.auditor = Auditor(mode=audit, metrics=self._metrics)
        self.trace_operators = trace_operators
        self.tracer = Tracer(capacity=ring, on_span_end=self.on_span_end)
        #: Conformance certificates by view name (JSON-ready dicts),
        #: published by :class:`~repro.obs.conformance.ConformanceProfiler`
        #: and served on the ``/certificates`` HTTP route.
        self.certificates: Dict[str, Dict[str, Any]] = {}
        #: The live per-(view, operator, shape) cost aggregates, fed by
        #: every finished ``maintain`` span.  Served by ``SHOW COSTS``
        #: and the ``/costs`` HTTP route.
        self.cost_ledger = CostLedger()
        #: The SLO policy health evaluation uses (None = defaults).
        self.slo = slo
        #: The incident dumper (its tape is the tracer's ring).
        self.recorder = FlightRecorder(directory=incident_dir)
        self._span_listeners: List[Callable[[Span], None]] = []
        self._server: Optional[Any] = None
        self._db_ref: Optional["weakref.ReferenceType[Any]"] = None
        self._last_health_status = "OK"
        #: Wall time of each view's latest ``maintain`` span.
        self._last_maintain: Dict[str, float] = {}
        #: ``view_maintained_total`` per view when it was last dropped.
        self._dropped: Dict[str, float] = {}
        #: Each chronicle's ``appended_count`` when the database was bound.
        self._appended_before: Dict[str, int] = {}

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry, its state series read first (:meth:`collect`).

        The one read entry point — ``/metrics``, :meth:`snapshot`,
        health, incident bundles and the CLI all take the registry here,
        once per request.
        """
        self.collect()
        return self._metrics

    # -- installation ------------------------------------------------------------------

    def install(self) -> "Observability":
        """Publish this instance to the process-wide runtime slot."""
        return runtime.install(self)

    def uninstall(self) -> None:
        """Withdraw this instance (no-op if another one is installed)."""
        runtime.uninstall(self)

    @property
    def installed(self) -> bool:
        return runtime.ACTIVE is self

    def __enter__(self) -> "Observability":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- exporters ---------------------------------------------------------------------

    def add_span_listener(self, listener: Callable[[Span], None]) -> None:
        """Register a callback fed every finished span (after metrics).

        :class:`~repro.obs.exporters.JsonlSpanSink` is the canonical
        listener: it ignores non-root spans and streams each completed
        trace to disk.  Listener exceptions are swallowed and counted
        (``span_listener_errors_total{listener=<type name>}``) — a
        closed sink must degrade the export, never the append path.
        """
        self._span_listeners.append(listener)

    def remove_span_listener(self, listener: Callable[[Span], None]) -> None:
        if listener in self._span_listeners:
            self._span_listeners.remove(listener)

    @property
    def server(self) -> Optional[Any]:
        """The running :class:`~repro.obs.server.MetricsServer`, if any."""
        return self._server

    def serve(self, port: int = 0, host: str = "127.0.0.1") -> Any:
        """Start the HTTP exporter on *port* (0 = ephemeral); returns the server.

        Routes: ``/metrics``, ``/certificates``, ``/costs`` and
        ``/health`` (:data:`~repro.obs.exporters.ROUTES`).
        """
        from .server import MetricsServer

        if self._server is not None:
            raise ObservabilityError(
                f"metrics server already running on port {self._server.port}"
            )
        self._server = MetricsServer(self, port=port, host=host).start()
        return self._server

    def stop_serving(self) -> None:
        """Stop the HTTP exporter (no-op when not serving)."""
        if self._server is not None:
            self._server.stop()
            self._server = None

    # -- span bridge -------------------------------------------------------------------

    def on_span_end(self, span: Span) -> None:
        """Feed one finished span through its :data:`SPAN_RULES` row."""
        rule = SPAN_RULES.get(span.name)
        if rule is not None:
            rule(self, span)
        for listener in self._span_listeners:
            try:
                listener(span)
            except Exception:
                self._metrics.inc(
                    "span_listener_errors_total",
                    listener=type(listener).__name__,
                )

    # -- state read on demand ----------------------------------------------------------

    def collect(self) -> None:
        """Read the state series off the bound database (no-op unbound).

        ``chronicle_appends_total`` (rows appended since the bind) and
        ``chronicle_stored_rows`` for each of the database's chronicles
        appended to since the bind: the values the latest write would
        have pushed.
        Runs whenever a reader takes :attr:`metrics`, so a scrape, a
        snapshot and a health evaluation all see current state, and the
        write path pushes none of it.  The values
        follow the bound database for as long as the bind holds, whether
        or not this handle is installed.
        """
        db = self.database()
        if db is None:
            return
        metrics, before = self._metrics, self._appended_before
        for group in list(db.groups.values()):
            for chronicle in list(group.chronicles.values()):
                name = chronicle.name
                appended = chronicle.appended_count - before.get(name, 0)
                if appended > 0:
                    metrics.counter("chronicle_appends_total", chronicle=name).value = appended
                    metrics.set("chronicle_stored_rows", chronicle.stored_count, chronicle=name)

    def _maintained(self) -> Dict[Any, float]:
        """``view_maintained_total`` per view, over engines, shards and workers."""
        out: Dict[Any, float] = {}
        for labels, counter in self._metrics.series("view_maintained_total"):
            view = labels.get("view")
            out[view] = out.get(view, 0) + counter.value
        return out

    def view_stats(self, views: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """``{view: {"spans": n, "last_append_seconds": s}}`` for *views*.

        ``spans`` counts the view's ``maintain`` spans since it was
        (re-)defined; ``last_append_seconds`` is the wall time of the
        latest one.  Views with no span since are absent.
        """
        wanted = set(views)
        out: Dict[str, Dict[str, Any]] = {}
        for view, count in self._maintained().items():
            count -= self._dropped.get(view, 0)
            if view in wanted and count > 0:
                out[view] = {
                    "spans": count,
                    "last_append_seconds": self._last_maintain.get(view, 0.0),
                }
        return out

    # -- health & incidents ------------------------------------------------------------

    def bind_database(self, db: Any) -> None:
        """Attach a database as the health/incident context source.

        Held through a weak reference so the process-wide handle can
        never keep a dropped database alive.  One database at a time —
        like the runtime slot itself, the last bind wins.  Rows appended
        before the first bind to *db* were never observed, so
        ``chronicle_appends_total`` leaves them out.
        """
        if db is not self.database():
            self._appended_before = {
                chronicle.name: chronicle.appended_count
                for group in db.groups.values()
                for chronicle in group.chronicles.values()
            }
        self._db_ref = weakref.ref(db)

    def database(self) -> Optional[Any]:
        """The bound database, or ``None`` (never bound / collected)."""
        return self._db_ref() if self._db_ref is not None else None

    def health(self) -> HealthReport:
        """Evaluate the SLO policy against the current state.

        A transition *into* ``FAILING`` triggers an ``slo-breach``
        incident dump.  Nothing evaluates health in the background:
        ``/health``, ``SHOW HEALTH`` and ``db.health()`` are the callers.
        """
        report = evaluate_health(self, self.slo)
        if report.status == "FAILING" and self._last_health_status != "FAILING":
            self.incident("slo-breach", health=report.as_dict())
        self._last_health_status = report.status
        return report

    def incident(
        self,
        reason: str,
        path: Optional[str] = None,
        failure: bool = False,
        **context: Any,
    ) -> Optional[str]:
        """Trigger the flight recorder with full context; returns the path.

        *failure* marks the library's own error sites (a shard worker
        raised, recovery failed): the reason's :data:`INCIDENT_COUNTERS`
        counter is counted first, so the bundle's snapshot includes it.
        A manual dump never counts, whatever its reason.  Assembles
        whatever the moment can safely provide — per-shard watermarks
        and merged registry stats from the bound database, plus this
        handle's :meth:`snapshot` — and hands it to
        :meth:`~repro.obs.recorder.FlightRecorder.trigger` with the
        tracer's ring, from which the bundle's tape is read.  Context
        collection is best-effort: an incident dump must never add a
        second failure to the one being recorded.
        """
        counter = INCIDENT_COUNTERS.get(reason) if failure else None
        if counter is not None:
            self._metrics.inc(counter)
        db = self.database()
        if db is not None:
            try:
                context.setdefault("watermarks", db.watermarks())
            except Exception:
                pass
            try:
                context.setdefault("registry_stats", db.stats)
            except Exception:
                pass
        try:
            context.setdefault("snapshot", self.snapshot())
        except Exception:
            pass
        return self.recorder.trigger(reason, context, path=path, traces=self.tracer.traces())

    # -- snapshots ---------------------------------------------------------------------

    def cost_snapshot(self) -> Dict[str, Any]:
        """The cost ledger as a JSON-ready dict, certificates stamped.

        Conformance verdicts published since the last snapshot are
        linked onto matching entries first, so every exported row
        carries its claimed-vs-fitted class when one is known.  This is
        what the ``/costs`` HTTP route serves.
        """
        if self.certificates:
            self.cost_ledger.link_certificates(self.certificates)
        return self.cost_ledger.as_dict()

    def snapshot(self) -> Dict[str, Any]:
        """A one-call dict of everything: metrics, audit, trace status.

        An incident bundle carries it as ``context.snapshot``.
        """
        buffered = len(self.tracer.traces())
        return {
            "metrics": self.metrics.as_dict(),
            "audit": self.auditor.summary(),
            "traces": {
                "completed": self.tracer.completed_count,
                "buffered": buffered,
                "capacity": self.tracer.capacity,
            },
            "certificates": {
                name: cert.get("conformant")
                for name, cert in sorted(self.certificates.items())
            },
            "health": self._last_health_status,
            "costs": {
                "entries": len(self.cost_ledger),
                "dropped": self.cost_ledger.dropped,
            },
            "recorder": {
                # The tape a dump would write: buffered traces + markers.
                "events": buffered + len(self.recorder.triggers_since(0)),
                "triggered": self.recorder.triggered,
                "dumped": self.recorder.dumped,
            },
        }

    def __repr__(self) -> str:
        state = "installed" if self.installed else "idle"
        return (
            f"Observability({state}, operators={self.trace_operators}, "
            f"audit={self.auditor.mode!r})"
        )
