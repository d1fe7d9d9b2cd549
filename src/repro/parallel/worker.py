"""The worker-process half of the ``process`` shard executor.

A worker process holds a :class:`UnitReplica` per shard label it was
assigned: mirror chronicles (``retention=0``) rebuilt from portable
schema specs, plus a private :class:`~repro.views.registry.ViewRegistry`
of views rebuilt from portable summary specs
(:func:`~repro.algebra.plan.summary_spec`) and seeded from the parent's
fold-state snapshot.  The replica is a faithful reconstruction of the
parent-side :class:`~repro.parallel.engine.ShardUnit` — same registry
settings (no prefilter, compile as configured), same coalesced
``ingest_stamped`` maintenance path — so the per-window fold it computes
is exactly what the inline executor would compute in place.

The cross-process contract is byte-minimal in both directions:

* **down** — one installed spec per shard (amortized over its lifetime),
  then per window only ``{chronicle: [value tuples]}`` plus the
  watermark: rows were validated at admission, so workers rebuild them
  with the unchecked constructor;
* **up** — per window, only the ``(key, state)`` pairs the window
  actually touched per view (the χ-delta's summary keys), from which the
  parent regenerates visible rows via
  :meth:`~repro.sca.view.PersistentView.absorb_states`.  View state
  never crosses whole.

**The telemetry relay.**  Spawned workers never inherit the parent's
observability runtime, so when the parent has observability installed
(and ``DatabaseConfig.relay_telemetry`` is on) each window additionally
travels through :func:`worker_apply_relay`: the parent pre-pickles the
window itself (timing the encode, counting the bytes), and the worker

* installs a process-local capture handle
  (:class:`~repro.obs.core.Observability`, no operator spans, audit
  off) for exactly the window's extent, so the ordinary hooks record a
  ``window_apply`` → ``append`` → per-view ``maintain`` span tree with
  :class:`~repro.complexity.counters.CostCounters` diffs;
* compacts the captured spans (:meth:`~repro.obs.tracer.Span
  .to_record`) and drains its metrics registry as per-window deltas
  (:meth:`~repro.obs.metrics.MetricsRegistry.to_deltas`), both **capped**
  (:data:`RELAY_MAX_SPANS` / :data:`RELAY_MAX_SERIES`) with drop
  counters — telemetry is bounded by catalog size, never by window
  size, and degrades by dropping, never by blocking;
* returns them in a :class:`WindowTelemetry` piggybacked on the same
  result tuple — no second channel — together with its decode/encode
  wall times and resource readings (max RSS, CPU seconds).

The parent grafts the spans under its ``shard_apply`` span
(:meth:`~repro.obs.tracer.Tracer.graft` — so worker-side ``maintain``
spans share the producing ingest's ``trace_id``), merges the metric
deltas with ``shard``/``worker`` labels, and turns the byte/time
readings into the ``ipc_*`` accounting series.  With observability off
the relay never engages: windows go through :func:`worker_apply` and the
cross-process payload is byte-identical to the minimal contract above.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from multiprocessing.connection import wait as _wait_for
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

try:  # pragma: no cover - unix-only module
    import resource as _resource
except ImportError:  # pragma: no cover - windows
    _resource = None  # type: ignore[assignment]

from ..algebra.plan import build_schema, build_summary
from ..core.chronicle import Chronicle
from ..core.group import ChronicleGroup
from ..core.sequence import SequenceNumber
from ..relational.tuples import Row
from ..sca.view import PersistentView
from ..views.registry import ViewRegistry

#: Most span records relayed per window (the whole compacted tree);
#: spans beyond the cap are dropped and counted, deepest-first.
RELAY_MAX_SPANS = 128

#: Most metric series relayed per window (bounded by label cardinality,
#: which is bounded by catalog size — the cap is a pressure valve).
RELAY_MAX_SERIES = 256

#: ``(chronicle name, schema_spec)`` pairs.
ChronicleSpecs = Tuple[Tuple[str, Tuple[Any, ...]], ...]
#: ``(view name, summary_spec, state items)`` triples.
ViewSpecs = Tuple[Tuple[str, Tuple[Any, ...], List[Tuple[Any, Any]]], ...]
#: One window's payload: chronicle name -> stamped value tuples.
WindowValues = Mapping[str, Sequence[Tuple[Any, ...]]]


class ShardUnitSpec:
    """Everything a worker needs to rebuild one shard unit.

    Built by :meth:`~repro.parallel.engine.ShardUnit.spec` under the
    unit's lock; a plain attribute bag so it pickles by default.
    """

    def __init__(
        self,
        label: str,
        chronicles: ChronicleSpecs,
        views: ViewSpecs,
        watermark: SequenceNumber,
    ) -> None:
        self.label = label
        self.chronicles = chronicles
        self.views = views
        self.watermark = watermark

    def __repr__(self) -> str:
        return (
            f"ShardUnitSpec({self.label!r}, chronicles={len(self.chronicles)}, "
            f"views={len(self.views)}, watermark={self.watermark})"
        )


class WindowTelemetry:
    """One window's worker-side telemetry, piggybacked on the result.

    A plain attribute bag (pickles by default), deliberately bounded:
    *spans* holds at most :data:`RELAY_MAX_SPANS` compact records and
    *metrics* at most :data:`RELAY_MAX_SERIES` delta series; anything
    beyond is dropped and counted in the ``*_dropped`` fields, which the
    parent surfaces as ``relay_spans_dropped_total`` /
    ``relay_series_dropped_total``.
    """

    def __init__(
        self,
        spans: List[Dict[str, Any]],
        spans_dropped: int,
        metrics: List[Tuple[str, str, Any, Any]],
        metrics_dropped: int,
        maxrss_bytes: int,
        cpu_seconds: float,
    ) -> None:
        self.spans = spans
        self.spans_dropped = spans_dropped
        self.metrics = metrics
        self.metrics_dropped = metrics_dropped
        self.maxrss_bytes = maxrss_bytes
        self.cpu_seconds = cpu_seconds

    def __repr__(self) -> str:
        return (
            f"WindowTelemetry(spans={len(self.spans)}"
            f"{f'+{self.spans_dropped} dropped' if self.spans_dropped else ''}, "
            f"series={len(self.metrics)}, rss={self.maxrss_bytes})"
        )


def _rusage() -> Tuple[int, float]:
    """(max RSS bytes, CPU seconds) of this worker process, best effort."""
    if _resource is None:
        return 0, 0.0
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    # ru_maxrss is kilobytes on Linux, bytes on macOS; normalize to bytes
    # by assuming the (vastly more common) kilobyte convention except
    # where the value is already implausibly large for kilobytes.
    maxrss = int(usage.ru_maxrss)
    if maxrss and maxrss < 1 << 34:
        maxrss *= 1024
    return maxrss, float(usage.ru_utime + usage.ru_stime)


def _compact_spans(
    roots: Sequence[Any], cap: int = RELAY_MAX_SPANS
) -> Tuple[List[Dict[str, Any]], int]:
    """Compact finished root spans into bounded relay records.

    The span *count* (whole tree, depth-first) is what the cap bounds;
    once reached, remaining subtrees are dropped and counted — the
    shallow structure (window → append → first views) survives pressure,
    the deep tail goes first.
    """
    budget = cap
    dropped = 0

    def take(span: Any) -> Optional[Dict[str, Any]]:
        nonlocal budget, dropped
        if budget <= 0:
            dropped += sum(1 for _ in span.walk())
            return None
        budget -= 1
        record: Dict[str, Any] = {
            "name": span.name,
            "started_at": span.started_at,
            "duration": span.duration,
        }
        if span.attrs:
            record["attrs"] = dict(span.attrs)
        if span.counters:
            record["counters"] = dict(span.counters)
        children = []
        for child in span.children:
            taken = take(child)
            if taken is not None:
                children.append(taken)
        if children:
            record["children"] = children
        return record

    out = []
    for root in roots:
        record = take(root)
        if record is not None:
            out.append(record)
    return out, dropped


class _TelemetryCapture:
    """The worker process's private observability handle.

    Built lazily on the first relayed window (plain :func:`worker_apply`
    windows never pay for it): tracing on, operator spans off (the
    deepest layer would dominate the relay budget for no routing value),
    auditor off (the parent's auditor already saw this view class; a
    worker-side raise could not propagate usefully anyway).  The handle
    is installed into the worker's runtime slot only for a window's
    extent and reset between windows, so its registry accumulates
    exactly one window's deltas at a time.
    """

    def __init__(self) -> None:
        from ..obs.core import Observability

        self.obs = Observability(trace=True, trace_operators=False, audit="off")

    def run(self, replica: "UnitReplica", window: WindowValues, watermark: SequenceNumber):
        from ..obs import runtime as obs_runtime

        obs = self.obs
        obs.metrics.reset()
        obs.tracer.clear()
        with obs_runtime.installed(obs):
            with obs.tracer.span(
                "window_apply", shard=replica.label, watermark=watermark
            ):
                result = replica.apply(window, watermark)
        spans, spans_dropped = _compact_spans(obs.tracer.traces())
        deltas = obs.metrics.to_deltas()
        metrics_dropped = max(0, len(deltas) - RELAY_MAX_SERIES)
        maxrss, cpu_seconds = _rusage()
        telemetry = WindowTelemetry(
            spans,
            spans_dropped,
            deltas[:RELAY_MAX_SERIES],
            metrics_dropped,
            maxrss,
            cpu_seconds,
        )
        return result + (telemetry,)


#: The worker's lazily-built capture handle (None until first relay).
_CAPTURE: Optional[_TelemetryCapture] = None


def _capture() -> _TelemetryCapture:
    global _CAPTURE
    if _CAPTURE is None:
        _CAPTURE = _TelemetryCapture()
    return _CAPTURE


class UnitReplica:
    """A worker-process reconstruction of one parent-side shard unit."""

    def __init__(self, spec: ShardUnitSpec) -> None:
        self.label = spec.label
        self.group = ChronicleGroup(f"{spec.label}::replica", start=spec.watermark + 1)
        self.registry = ViewRegistry(prefilter=False)
        self.group.subscribe(self.registry.on_event)
        self.watermark: SequenceNumber = spec.watermark
        self.ensure_chronicles(spec.chronicles)
        self.views: Dict[str, PersistentView] = {}
        for name, summary_sp, state_items in spec.views:
            self.add_view(name, summary_sp, state_items)

    def ensure_chronicles(self, chronicles: ChronicleSpecs) -> None:
        """Adopt mirrors for any chronicle specs not yet present."""
        for name, schema_sp in chronicles:
            if name not in self.group.chronicles:
                self.group.adopt(Chronicle(name, build_schema(schema_sp), retention=0))

    def add_view(
        self,
        name: str,
        summary_sp: Tuple[Any, ...],
        state_items: List[Tuple[Any, Any]],
    ) -> None:
        summary = build_summary(summary_sp, self.group.chronicles)
        view = PersistentView(name, summary)
        view.state_import(state_items)
        # Folds hand out the (key, state) pairs they touch: the compact
        # per-window delta sent back instead of the whole partition.
        view.record_touched()
        self.registry.register(view)
        self.views[name] = view

    def remove_view(self, name: str) -> None:
        self.registry.unregister(name)
        del self.views[name]

    def apply(
        self, window: WindowValues, watermark: SequenceNumber
    ) -> Tuple[Dict[str, List[Tuple[Any, Any]]], int, float, Dict[str, Any]]:
        """Absorb one coalesced maintenance window.

        Returns ``(per-view touched state items, records, elapsed
        seconds, cumulative registry stats)``.
        """
        started = time.perf_counter()
        unchecked = Row.unchecked
        event: Dict[str, Tuple[Row, ...]] = {}
        records = 0
        for name, values in window.items():
            schema = self.group[name].schema
            rows = tuple(unchecked(schema, tuple(v)) for v in values)
            event[name] = rows
            records += len(rows)
        self.group.ingest_stamped(event, watermark)
        self.watermark = watermark
        # Report every *candidate* view (its chronicles were touched —
        # exactly the views the registry maintained this window), even
        # with an empty item list: the parent counts a maintenance
        # window per reported view, matching the inline executor.
        touched_names = set(event)
        out: Dict[str, List[Tuple[Any, Any]]] = {}
        for name, view in self.views.items():
            if touched_names.isdisjoint(view.chronicle_names()):
                continue
            out[name] = view.take_touched()
        elapsed = time.perf_counter() - started
        return out, records, elapsed, self.registry.stats


#: label -> replica, module-global in each worker process.
_REPLICAS: Dict[str, UnitReplica] = {}


def worker_init() -> None:
    """Pool initializer: end this worker when its parent process dies.

    A spawned worker holds both ends of its call queue, so a parent that
    is killed outright (SIGKILL, out of memory) never closes it and the
    idle worker would block in ``get`` for ever.  A daemon thread waits on
    the parent's sentinel instead and exits the process when it fires.
    """
    parent = multiprocessing.parent_process()
    if parent is None:  # pragma: no cover - not a multiprocessing child
        return

    def watch() -> None:
        _wait_for([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def worker_install(spec: ShardUnitSpec) -> str:
    """(Re)build the replica for one shard label; returns the label."""
    _REPLICAS[spec.label] = UnitReplica(spec)
    return spec.label


def worker_add_view(
    label: str,
    name: str,
    summary_sp: Tuple[Any, ...],
    state_items: List[Tuple[Any, Any]],
    chronicles: ChronicleSpecs,
) -> None:
    replica = _REPLICAS[label]
    replica.ensure_chronicles(chronicles)
    replica.add_view(name, summary_sp, state_items)


def worker_remove_view(label: str, name: str) -> bool:
    """Drop one view; a replica left with none is released (returns True)."""
    replica = _REPLICAS[label]
    replica.remove_view(name)
    if replica.views:
        return False
    del _REPLICAS[label]
    return True


def worker_apply(
    label: str, window: WindowValues, watermark: SequenceNumber
) -> Tuple[Dict[str, List[Tuple[Any, Any]]], int, float, Dict[str, Any]]:
    return _REPLICAS[label].apply(window, watermark)


def worker_apply_relay(label: str, blob: bytes) -> Tuple[bytes, float, float]:
    """Telemetry-relaying variant of :func:`worker_apply`.

    The parent sends the ``(window, watermark)`` pair pre-pickled so the
    decode here (and the result encode) can be *timed* — that wall time
    is the worker-side half of the IPC cost the parent accounts under
    ``ipc_decode_seconds``/``ipc_encode_seconds``.  Returns
    ``(result blob, decode seconds, encode seconds)`` where the blob
    pickles the 5-tuple ``(touched state items, records, elapsed,
    registry stats, WindowTelemetry)``.
    """
    t0 = time.perf_counter()
    window, watermark = pickle.loads(blob)
    decode_seconds = time.perf_counter() - t0
    payload = _capture().run(_REPLICAS[label], window, watermark)
    t0 = time.perf_counter()
    result = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    encode_seconds = time.perf_counter() - t0
    return result, decode_seconds, encode_seconds
