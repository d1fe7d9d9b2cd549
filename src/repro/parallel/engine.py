"""The sharded maintenance engine: a fan-out stage the facade holds.

``ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=N))``
is still a :class:`~repro.core.database.ChronicleDatabase` — the one
database class — whose ``_shards`` is a :class:`ShardEngine`.  The
facade admits and sequence-stamps every batch exactly once on the serial
path (one sequence-number domain per group, Section 4), then hands the
stamped rows to the engine, which fans maintenance out:

* **placement** — views whose summary key has copy lineage to the base
  records (:func:`~repro.algebra.plan.infer_partition`) are split into
  *N* independent partitions; views whose keys straddle partitions stay
  on the facade's serial registry (an
  :class:`UnpartitionableViewWarning` says so);
* **shard unit** — a private :class:`~repro.core.group.ChronicleGroup`
  of *mirror* chronicles (``retention=0`` — the no-access theorem means
  maintenance never reads them, so shards store no chronicle history)
  plus a private :class:`~repro.views.registry.ViewRegistry` holding
  this shard's partition of every view in the key class;
* **key class** — views with *equal* :class:`PartitionSpec` route
  identically and share one row of units (:class:`ShardGroup`); views
  with different specs get their own units, since a shard's registry
  maintains every view it holds against every event it receives.  A key
  class is retired when its last view is dropped;
* **window** — one facade write opens one :class:`FanOut`; however many
  batches it admits (``ingest`` admits a window of them, each with its
  own fresh sequence number), each shard receives *one* coalesced
  maintenance event (:meth:`~repro.core.group.ChronicleGroup
  .ingest_stamped`), amortizing the per-event fixed costs that dominate
  small batches;
* **executor** — *where* a window's per-shard tasks run:
  :class:`ShardBackend` runs them inline on the admitting thread,
  :class:`ProcessShardBackend` ships them to worker processes holding
  portable replicas.  Nothing else differs between the two.

Reads merge: :class:`MergedView` routes key lookups to the owning shard
and unions scans, taking each unit's lock so a lookup never observes a
half-applied window (snapshot consistency via per-shard watermarks).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from threading import RLock
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..algebra.ast import ChronicleScan, Node
from ..algebra.plan import (
    UNPARTITIONABLE,
    PartitionSpec,
    infer_partition,
    is_portable,
    schema_spec,
    summary_spec,
)
from ..core.chronicle import Chronicle
from ..core.delta import Delta
from ..core.group import ChronicleGroup
from ..core.sequence import SequenceNumber
from ..errors import AlgebraError, EngineError
from ..obs import runtime as obs_runtime
from ..obs.health import ShardHealth, ShardLag
from ..relational.algebra import Table
from ..relational.tuples import Row
from ..sca.summarize import GroupBySummary, ProjectSummary, Summary
from ..sca.view import PersistentView
from ..views.registry import ViewRegistry
from .router import ShardRouter
from .worker import (
    ShardUnitSpec,
    WindowTelemetry,
    worker_add_view,
    worker_apply,
    worker_apply_relay,
    worker_init,
    worker_install,
    worker_remove_view,
)


class UnpartitionableViewWarning(UserWarning):
    """A view's keys straddle partitions; it runs on the serial shard."""


class NonPortableViewWarning(UnpartitionableViewWarning):
    """A view's definition cannot cross a process boundary; serial shard."""


# ---------------------------------------------------------------------------
# Expression rebinding (real chronicles -> a shard's mirrors)
# ---------------------------------------------------------------------------


def rebind(node: Node, chronicles: Mapping[str, Chronicle]) -> Node:
    """Rebuild an algebra tree over mirror chronicles (post-order).

    Relations are shared (replicated read-only — proactive updates reach
    every shard through the one shared object); chronicle scans are
    redirected to the shard's mirrors, which carry the *same*
    :class:`~repro.relational.schema.Schema` objects, so rows stamped on
    the serial path flow into shard maintenance without copying.
    """
    if isinstance(node, ChronicleScan):
        return ChronicleScan(chronicles[node.chronicle.name])
    children = tuple(rebind(child, chronicles) for child in node.children)
    try:
        return node.with_children(children)
    except AlgebraError as exc:
        raise EngineError(
            f"cannot rebind {type(node).__name__} onto shard mirrors; "
            f"views containing it are unpartitionable"
        ) from exc


def rebind_summary(summary: Summary, chronicles: Mapping[str, Chronicle]) -> Summary:
    """Rebuild a summary specification over mirror chronicles."""
    expression = rebind(summary.expression, chronicles)
    if isinstance(summary, GroupBySummary):
        return GroupBySummary(
            expression, summary.grouping, summary.aggregates, having=summary.having
        )
    if isinstance(summary, ProjectSummary):
        return ProjectSummary(expression, summary.names)
    raise EngineError(f"cannot rebind summary type {type(summary).__name__}")


# ---------------------------------------------------------------------------
# Shard units and key classes
# ---------------------------------------------------------------------------


class ShardWindow:
    """Dispatch-time context riding along with one maintenance window.

    Built once per write on the admission (serial) thread and shared by
    every task of the window: the trace identity of the producing
    ``ingest`` span (``None`` ids when tracing is off) and the admission
    wall-clock instant, from which workers measure the per-shard
    admission→visible lag.
    """

    __slots__ = ("trace_id", "parent_id", "admitted_at")

    def __init__(
        self,
        trace_id: Optional[int],
        parent_id: Optional[int],
        admitted_at: float,
    ) -> None:
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.admitted_at = admitted_at


class ShardUnit:
    """One worker shard of one key class: mirrors + a private registry.

    All access to the unit's state — applying a maintenance window,
    reading a view partition — happens under :attr:`lock`, so reads are
    snapshot-consistent: they see whole windows or nothing.
    """

    __slots__ = (
        "index",
        "label",
        "group",
        "registry",
        "lock",
        "watermark",
        "dispatched",
        "dispatched_at",
        "last_apply_at",
        "last_lag_seconds",
        "records_applied",
        "windows_applied",
        "remote_stats",
        "remote_spans",
    )

    def __init__(
        self,
        index: int,
        label: str,
        source_group: ChronicleGroup,
    ) -> None:
        self.index = index
        self.label = label
        self.group = ChronicleGroup(f"{source_group.name}::{label}")
        # No prefilter: units see coalesced multi-batch events, which are
        # large enough that nearly every view is affected — the prefilter
        # would re-scan the whole event per view only to say "yes".  The
        # prefilter stays on the serial registry, where per-batch events
        # are small and most views are untouched.
        self.registry = ViewRegistry(prefilter=False)
        self.group.subscribe(self.registry.on_event)
        self.lock = RLock()
        #: Highest sequence number this shard has absorbed (-1 initially).
        self.watermark: SequenceNumber = -1
        #: Highest sequence number dispatched *to* this shard (set on the
        #: admission thread before the worker runs; ``dispatched >
        #: watermark`` means a window is in flight or queued).
        self.dispatched: SequenceNumber = -1
        #: Admission instant of the most recently dispatched window.
        self.dispatched_at: float = 0.0
        #: Wall-clock instant of the last applied window (0.0 = never).
        self.last_apply_at: float = 0.0
        #: Admission→visible latency of the last applied window.
        self.last_lag_seconds: float = 0.0
        #: Lifetime records / windows absorbed by this shard.
        self.records_applied: int = 0
        self.windows_applied: int = 0
        #: Cumulative registry stats of this shard's worker-process
        #: replica (empty unless the process executor maintains it —
        #: the parent-side registry then never sees events itself).
        self.remote_stats: Dict[str, Any] = {}
        #: The last relayed worker span records (compact dicts) — what a
        #: worker-crash incident bundle reports as the worker's final
        #: observed activity.
        self.remote_spans: List[Dict[str, Any]] = []

    def mirror(self, chronicle: Chronicle) -> Chronicle:
        """The unit's mirror of a real chronicle (created on demand).

        Mirrors share the real chronicle's schema and store nothing
        (``retention=0``): maintenance never reads the store, so the
        shard only pays for view state, not chronicle history.
        """
        existing = self.group.chronicles.get(chronicle.name)
        if existing is None:
            existing = Chronicle(chronicle.name, chronicle.schema, retention=0)
            self.group.adopt(existing)
        return existing

    def apply(
        self,
        event: Mapping[str, Sequence[Row]],
        watermark: SequenceNumber,
        window: Optional[ShardWindow] = None,
    ) -> None:
        """Absorb one coalesced maintenance window (runs on a worker).

        When *window* carries a trace identity, the ``shard_apply`` span
        is linked to the producing ``ingest``/``append`` span
        (:meth:`~repro.obs.tracer.Tracer.start_linked`), so cross-thread
        traces correlate: every worker span carries the admission span's
        ``trace_id``.
        """
        obs = obs_runtime.ACTIVE
        with self.lock:
            if obs is not None and obs.trace:
                if window is not None and window.trace_id is not None:
                    span = obs.tracer.start_linked(
                        "shard_apply",
                        window.trace_id,
                        window.parent_id,
                        shard=self.label,
                    )
                else:
                    span = obs.tracer.start("shard_apply", shard=self.label)
                try:
                    self.group.ingest_stamped(event, watermark)
                finally:
                    obs.tracer.finish(span)
            else:
                self.group.ingest_stamped(event, watermark)
            records = sum(len(rows) for rows in event.values())
            self.mark_applied(watermark, window, records)

    def mark_applied(
        self,
        watermark: SequenceNumber,
        window: Optional[ShardWindow],
        records: int,
    ) -> None:
        """Watermark/lag bookkeeping shared by every executor backend.

        Caller holds :attr:`lock` and has just made a whole window
        visible (either by applying it in place or by absorbing a
        worker's results).
        """
        self.watermark = watermark
        now = time.time()
        self.last_apply_at = now
        self.windows_applied += 1
        self.records_applied += records
        if window is not None:
            self.last_lag_seconds = max(0.0, now - window.admitted_at)
        obs = obs_runtime.ACTIVE
        if obs is not None:
            # The freshness gauges: how long admission→visible took
            # for the window just absorbed, and how many sequence
            # numbers of dispatched work remain unabsorbed (newer
            # windows may have queued behind this one).
            if window is not None:
                obs.metrics.set(
                    "shard_lag_seconds", self.last_lag_seconds, shard=self.label
                )
            obs.metrics.set(
                "shard_lag_batches",
                max(0, self.dispatched - watermark),
                shard=self.label,
            )

    def absorb(
        self,
        per_view_items: Mapping[str, Sequence[Tuple[Any, Any]]],
        watermark: SequenceNumber,
        window: Optional[ShardWindow],
        records: int,
        worker_seconds: float,
        stats: Dict[str, Any],
        *,
        telemetry: Optional[WindowTelemetry] = None,
        ipc: Optional[Dict[str, Any]] = None,
        worker: Optional[str] = None,
    ) -> None:
        """Make one worker-process window visible (runs on the parent).

        The worker returns only the ``(key, state)`` pairs the window
        touched per view; this merges them into the parent-side
        partition views under the unit lock — the same snapshot
        consistency readers get from the inline executor — and performs
        the same watermark/lag/trace bookkeeping, with the worker's
        wall-clock attached to the ``shard_apply`` span.

        When the telemetry relay is active, *telemetry* carries the
        worker's captured spans and metric deltas, *ipc* the byte/time
        readings of both pickling directions, and *worker* the pool-slot
        label.  The spans are grafted under the ``shard_apply`` span
        (before it finishes — they enter the ring inside the stitched
        ingest trace), the deltas merged into the global registry with
        ``shard``/``worker`` labels, and the IPC readings turned into
        the ``ipc_*`` accounting series.
        """
        obs = obs_runtime.ACTIVE
        with self.lock:
            span = None
            if obs is not None and obs.trace:
                if window is not None and window.trace_id is not None:
                    span = obs.tracer.start_linked(
                        "shard_apply",
                        window.trace_id,
                        window.parent_id,
                        shard=self.label,
                        worker_seconds=worker_seconds,
                    )
                else:
                    span = obs.tracer.start(
                        "shard_apply", shard=self.label, worker_seconds=worker_seconds
                    )
            try:
                for name, items in per_view_items.items():
                    self.registry.view(name).absorb_states(items)
                if span is not None and telemetry is not None and telemetry.spans:
                    graft_attrs = {"worker": worker} if worker is not None else {}
                    obs.tracer.graft(span, telemetry.spans, **graft_attrs)
            finally:
                if span is not None:
                    obs.tracer.finish(span)
            self.remote_stats = stats
            if telemetry is not None:
                self.remote_spans = telemetry.spans
            self.mark_applied(watermark, window, records)
            if obs is not None:
                self._relay_metrics(obs, telemetry, ipc, worker)

    def _relay_metrics(
        self,
        obs: Any,
        telemetry: Optional[WindowTelemetry],
        ipc: Optional[Dict[str, Any]],
        worker: Optional[str],
    ) -> None:
        """Publish one relayed window's IPC accounting and metric deltas."""
        metrics = obs.metrics
        shard = self.label
        if ipc is not None:
            metrics.inc("ipc_bytes_down_total", ipc["bytes_down"], shard=shard)
            metrics.inc("ipc_bytes_up_total", ipc["bytes_up"], shard=shard)
            metrics.observe(
                "ipc_encode_seconds",
                ipc["encode_down_seconds"],
                shard=shard,
                direction="down",
            )
            metrics.observe(
                "ipc_decode_seconds",
                ipc["decode_down_seconds"],
                shard=shard,
                direction="down",
            )
            metrics.observe(
                "ipc_encode_seconds",
                ipc["encode_up_seconds"],
                shard=shard,
                direction="up",
            )
            metrics.observe(
                "ipc_decode_seconds",
                ipc["decode_up_seconds"],
                shard=shard,
                direction="up",
            )
        if telemetry is not None:
            metrics.merge_deltas(telemetry.metrics, shard=shard, worker=worker)
            if telemetry.spans_dropped:
                metrics.inc(
                    "relay_spans_dropped_total", telemetry.spans_dropped, shard=shard
                )
            if telemetry.metrics_dropped:
                metrics.inc(
                    "relay_series_dropped_total",
                    telemetry.metrics_dropped,
                    shard=shard,
                )
            if worker is not None:
                if telemetry.maxrss_bytes:
                    metrics.set(
                        "worker_rss_bytes", telemetry.maxrss_bytes, worker=worker
                    )
                metrics.set(
                    "worker_cpu_seconds", telemetry.cpu_seconds, worker=worker
                )

    # -- portability -------------------------------------------------------------------

    def spec(self) -> ShardUnitSpec:
        """Snapshot everything a worker process needs to replicate this unit.

        Taken under the unit lock, so the fold-state snapshot is
        consistent with :attr:`watermark` — the replica resumes exactly
        where the unit stands.
        """
        with self.lock:
            chronicles = tuple(
                (name, schema_spec(chronicle.schema))
                for name, chronicle in self.group.chronicles.items()
            )
            views = tuple(
                (view.name, summary_spec(view.summary), view.state_export())
                for view in self.registry.views()
            )
            return ShardUnitSpec(
                self.label,
                chronicles,
                views,
                self.watermark,
            )

    def view_payload(self, name: str) -> Tuple[Any, Any, Any]:
        """The install payload for one view: (summary spec, state, chronicles)."""
        with self.lock:
            view = self.registry.view(name)
            chronicles = tuple(
                (n, schema_spec(chronicle.schema))
                for n, chronicle in self.group.chronicles.items()
            )
            return summary_spec(view.summary), view.state_export(), chronicles

    def __repr__(self) -> str:
        return f"ShardUnit({self.label!r}, watermark={self.watermark})"


class ShardGroup:
    """All worker shards of one partition key class.

    Views whose :class:`PartitionSpec` is *equal* share these units —
    they route records identically, so one event stream maintains them
    all.  Views with different specs must not share units: a unit's
    registry maintains every registered view against every event it
    receives, and rows routed under one spec generally belong to a
    different shard under another.
    """

    def __init__(
        self,
        name: str,
        spec: PartitionSpec,
        source_group: ChronicleGroup,
        shards: int,
    ) -> None:
        self.name = name
        self.spec = spec
        self.source_group = source_group
        self.router = ShardRouter(spec, shards)
        self.units: List[ShardUnit] = [
            ShardUnit(i, f"{name}:{i}", source_group) for i in range(shards)
        ]
        self.views: Dict[str, Summary] = {}

    def add_view(self, name: str, summary: Summary) -> None:
        """Register one view partition in every unit."""
        chronicles = {c.name: c for c in summary.expression.chronicles()}
        for chronicle in chronicles.values():
            self.router.bind(chronicle)
        for unit in self.units:
            mirrors = {n: unit.mirror(c) for n, c in chronicles.items()}
            rebound = rebind_summary(summary, mirrors)
            with unit.lock:
                unit.registry.register(PersistentView(name, rebound))
        self.views[name] = summary

    def remove_view(self, name: str) -> None:
        for unit in self.units:
            with unit.lock:
                unit.registry.unregister(name)
        del self.views[name]

    def __repr__(self) -> str:
        return (
            f"ShardGroup({self.name!r}, shards={len(self.units)}, "
            f"views={sorted(self.views)})"
        )


class MergedView:
    """Read facade over one view's per-shard partitions.

    Key lookups hash the key to the owning shard; scans union the
    partitions.  Each access takes the unit's lock, so reads are
    snapshot-consistent with respect to maintenance windows.
    """

    def __init__(self, name: str, summary: Summary, shard_group: ShardGroup) -> None:
        self.name = name
        self.summary = summary
        #: The view's original expression over the *real* chronicles.
        self.expression = summary.expression
        self._shard_group = shard_group

    # -- introspection (delegated to the partition views) ----------------------

    @property
    def schema(self) -> Any:
        return self.summary.output_schema

    def _partition(self, unit: ShardUnit) -> PersistentView:
        return unit.registry.view(self.name)

    @property
    def classification(self) -> Any:
        return self._partition(self._shard_group.units[0]).classification

    @property
    def im_class(self) -> Any:
        return self._partition(self._shard_group.units[0]).im_class

    @property
    def language(self) -> Any:
        return self._partition(self._shard_group.units[0]).language

    def chronicle_names(self) -> Tuple[str, ...]:
        return tuple({c.name: None for c in self.expression.chronicles()})

    @property
    def maintenance_count(self) -> int:
        """Total maintenance windows processed across all partitions."""
        return sum(
            self._partition(unit).maintenance_count
            for unit in self._shard_group.units
        )

    # -- reads ------------------------------------------------------------------

    def lookup(self, key: Sequence[Any]) -> Optional[Row]:
        key = tuple(key)
        sg = self._shard_group
        unit = sg.units[sg.router.shard_of_key(key)]
        with unit.lock:
            return self._partition(unit).lookup(key)

    def value(self, key: Sequence[Any], output: str) -> Any:
        key = tuple(key)
        sg = self._shard_group
        unit = sg.units[sg.router.shard_of_key(key)]
        with unit.lock:
            return self._partition(unit).value(key, output)

    def rows(self) -> Any:
        """Union of the partitions (each snapshotted under its lock)."""
        for unit in self._shard_group.units:
            with unit.lock:
                chunk = list(self._partition(unit).rows())
            yield from chunk

    def __iter__(self) -> Any:
        return self.rows()

    def __len__(self) -> int:
        total = 0
        for unit in self._shard_group.units:
            with unit.lock:
                total += len(self._partition(unit))
        return total

    def to_table(self) -> Table:
        return Table(self.schema, list(self.rows()))

    # -- durability --------------------------------------------------------------------

    def export_state(self) -> Tuple[List[Tuple[Any, Any]], int]:
        """Union of the partitions' fold state, for checkpointing.

        Returns ``(state items, total maintenance count)``.  The items
        alone determine the visible rows (``view_row`` is pure), and
        partition keys are disjoint, so the union is the state the
        serial engine would hold — checkpoints are engine-portable.
        """
        items: List[Tuple[Any, Any]] = []
        count = 0
        for unit in self._shard_group.units:
            with unit.lock:
                view = self._partition(unit)
                items.extend(view.state_export())
                count += view.maintenance_count
        return items, count

    def import_state(
        self, items: Sequence[Tuple[Any, Any]], maintenance_count: int = 0
    ) -> None:
        """Restore the partitions from checkpointed fold state.

        Items are routed to their owning shard by the (stable) router
        hash — which is why restore works across processes at all — and
        each partition rebuilds its rows from its bucket.  The combined
        maintenance count is assigned to shard 0 so the merged total
        round-trips.
        """
        sg = self._shard_group
        buckets: List[List[Tuple[Any, Any]]] = [[] for _ in sg.units]
        for key, value in items:
            key = tuple(key)
            buckets[sg.router.shard_of_key(key)].append((key, value))
        for index, unit in enumerate(sg.units):
            with unit.lock:
                self._partition(unit).state_import(
                    buckets[index],
                    maintenance_count=maintenance_count if index == 0 else 0,
                )

    def __repr__(self) -> str:
        return (
            f"MergedView({self.name!r}, shards={len(self._shard_group.units)}, "
            f"rows={len(self)})"
        )


# ---------------------------------------------------------------------------
# Executors: where a window's tasks run
# ---------------------------------------------------------------------------


class ShardTask:
    """One shard's share of one maintenance window, ready to execute.

    Built on the admission thread by :meth:`ShardEngine._dispatch`;
    backends decide *where* it runs (inline or in a worker process) —
    the routing, watermark bookkeeping, and trace context are already
    fixed.
    """

    __slots__ = ("unit", "event", "watermark", "window")

    def __init__(
        self,
        unit: ShardUnit,
        event: Mapping[str, Sequence[Row]],
        watermark: SequenceNumber,
        window: Optional[ShardWindow],
    ) -> None:
        self.unit = unit
        self.event = event
        self.watermark = watermark
        self.window = window

    def summary(self) -> Dict[str, Any]:
        """A compact description of this task's window, for diagnostics.

        What a worker-crash incident bundle reports about the window
        that killed the worker: enough to characterize (and often
        reproduce) the failure without holding row data.
        """
        return {
            "shard": self.unit.label,
            "watermark": self.watermark,
            "chronicles": {name: len(rows) for name, rows in self.event.items()},
            "records": sum(len(rows) for rows in self.event.values()),
        }


class ShardBackend:
    """The inline executor, and the contract the engine dispatches through.

    One dispatch path serves both executors: ``run`` executes a window's
    tasks and re-raises the first failure after all complete (a partial
    window never hides an error); the view/reset hooks let a stateful
    backend (worker processes holding replicas) track registration
    changes.  This class runs every task on the admitting thread —
    deterministic, and on every stream measured so far the faster of
    the two (docs/performance.md).
    """

    name = "serial"

    def run(self, tasks: Sequence[ShardTask]) -> None:
        for task in tasks:
            task.unit.apply(task.event, task.watermark, task.window)

    def queue_depth(self) -> int:
        """Tasks waiting to execute (0 when nothing is in flight)."""
        return 0

    def view_added(self, shard_group: "ShardGroup", name: str) -> None:
        """A view was registered after workers may have state."""

    def view_removed(self, shard_group: "ShardGroup", name: str) -> None:
        """A view was dropped."""

    def reset_units(self, shard_groups: Sequence["ShardGroup"]) -> None:
        """Parent-side shard state was replaced (restore); resync."""

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _shutdown_pools(pools: List[Optional[ProcessPoolExecutor]]) -> None:
    """Shut down every live pool in *pools*, emptying the slots in place.

    Takes the slot list rather than the backend so that a
    ``weakref.finalize`` can hold it without keeping the backend alive.
    """
    for slot, pool in enumerate(pools):
        if pool is not None:
            pools[slot] = None
            pool.shutdown(wait=True)


class ProcessShardBackend(ShardBackend):
    """Run tasks in worker processes holding shard replicas.

    Each shard label is pinned to one single-process pool (a replica is
    mutable state; it must only ever live in one process), assigned
    round-robin over *workers* slots.  Pools use the ``spawn`` start
    method — workers import :mod:`repro.parallel.worker` fresh, proving
    the replica really was rebuilt from the portable spec rather than
    inherited address space.  Replicas install lazily on a shard's first
    window (amortized over its lifetime); per window only stamped value
    tuples go down and touched ``(key, state)`` pairs come back.

    With observability installed (and ``relay_telemetry`` on), windows
    travel through :func:`~repro.parallel.worker.worker_apply_relay`
    instead: the parent pre-pickles the window (timing the encode,
    counting the bytes) and the worker piggybacks a bounded
    :class:`~repro.parallel.worker.WindowTelemetry` — captured spans,
    metric deltas, resource readings — on the result, which
    :meth:`ShardUnit.absorb` grafts, merges, and accounts.  With either
    switch off the legacy path runs and the payload is byte-identical.

    A worker that raises keeps its pool: the window failed, the parent
    watermark stands, and the next dispatch retries cleanly.  A worker
    that *dies* breaks its pool; its slot is marked and every subsequent
    dispatch to shards on that slot raises
    :class:`~repro.errors.EngineError` (the replica state is gone — a
    restore or restart must rebuild it).

    The worker processes are tied to the backend's lifetime: :meth:`close`
    ends them, and a finalizer ends them when a database is dropped
    without ``close()`` (or the interpreter exits).  Each worker also
    ends itself when the parent process dies
    (:func:`~repro.parallel.worker.worker_init`).
    """

    name = "process"

    def __init__(self, workers: int, relay_telemetry: bool = True) -> None:
        self.workers = max(1, workers)
        #: Whether windows carry telemetry back when observability is on
        #: (:attr:`~repro.core.config.DatabaseConfig.relay_telemetry`).
        self.relay_telemetry = bool(relay_telemetry)
        self._context = multiprocessing.get_context("spawn")
        self._pools: List[Optional[ProcessPoolExecutor]] = [None] * self.workers
        weakref.finalize(self, _shutdown_pools, self._pools)
        self._assignment: Dict[str, int] = {}
        self._installed: Set[str] = set()
        self._broken: Dict[int, str] = {}

    # -- pool management ---------------------------------------------------------------

    def _slot_of(self, label: str) -> int:
        slot = self._assignment.get(label)
        if slot is None:
            slot = self._assignment[label] = len(self._assignment) % self.workers
        return slot

    def _pool_for(self, label: str) -> ProcessPoolExecutor:
        slot = self._slot_of(label)
        if slot in self._broken:
            raise EngineError(
                f"shard {label!r}'s worker process died previously "
                f"({self._broken[slot]}); its replica state is gone — "
                f"restore from a checkpoint or rebuild the database"
            )
        pool = self._pools[slot]
        if pool is None:
            pool = self._pools[slot] = ProcessPoolExecutor(
                max_workers=1, mp_context=self._context, initializer=worker_init
            )
        return pool

    def _mark_broken(self, label: str, exc: BaseException) -> None:
        slot = self._slot_of(label)
        self._broken[slot] = repr(exc)
        pool = self._pools[slot]
        if pool is not None:
            pool.shutdown(wait=False)
            self._pools[slot] = None
        self._installed = {
            installed
            for installed in self._installed
            if self._assignment.get(installed) != slot
        }

    def _ensure_installed(self, unit: ShardUnit) -> ProcessPoolExecutor:
        pool = self._pool_for(unit.label)
        if unit.label not in self._installed:
            pool.submit(worker_install, unit.spec()).result()
            self._installed.add(unit.label)
        return pool

    # -- dispatch ----------------------------------------------------------------------

    def _relay_active(self) -> bool:
        """Whether windows should travel through the telemetry relay.

        Both switches must be on: the config knob *and* an installed
        observability handle — with either off, dispatch uses the legacy
        :func:`~repro.parallel.worker.worker_apply` entry point and the
        cross-process payload is byte-identical to the minimal contract.
        """
        return self.relay_telemetry and obs_runtime.ACTIVE is not None

    def _encode_task(self, task: ShardTask) -> Tuple[Any, Tuple[Any, ...], Optional[Dict[str, Any]]]:
        """One task's submission: ``(worker fn, args, ipc meta or None)``.

        On the relay path the parent pickles the window itself (so the
        encode can be timed and the bytes counted); the pool then ships
        an opaque ``bytes`` — re-pickling bytes is nearly free.  Off the
        relay path the args are exactly PR 6's ``worker_apply`` payload.
        """
        payload = {
            name: [row.values for row in rows]
            for name, rows in task.event.items()
        }
        if not self._relay_active():
            return worker_apply, (task.unit.label, payload, task.watermark), None
        t0 = time.perf_counter()
        blob = pickle.dumps(
            (payload, task.watermark), protocol=pickle.HIGHEST_PROTOCOL
        )
        encode_seconds = time.perf_counter() - t0
        meta = {"bytes_down": len(blob), "encode_down_seconds": encode_seconds}
        return worker_apply_relay, (task.unit.label, blob), meta

    def _attach_diagnostics(self, exc: BaseException, task: ShardTask) -> None:
        """Stamp the failing task's context onto *exc* for the incident path."""
        try:
            exc.shard_task_summary = task.summary()  # type: ignore[attr-defined]
            exc.worker_spans = task.unit.remote_spans  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - exotic exception types
            pass

    def run(self, tasks: Sequence[ShardTask]) -> None:
        submitted: List[Tuple[ShardTask, Any, Optional[Dict[str, Any]]]] = []
        error: Optional[BaseException] = None
        for task in tasks:
            unit = task.unit
            try:
                pool = self._ensure_installed(unit)
                fn, args, ipc_meta = self._encode_task(task)
                future = pool.submit(fn, *args)
            except BrokenProcessPool as exc:
                # The pool's management thread already noticed the death;
                # submit refuses synchronously.
                self._mark_broken(unit.label, exc)
                if error is None:
                    error = EngineError(
                        f"shard {unit.label!r}'s worker process died: {exc!r}"
                    )
                    error.__cause__ = exc
                    self._attach_diagnostics(error, task)
                continue
            except EngineError as exc:
                # A previously broken slot (_pool_for refuses).
                if error is None:
                    error = exc
                    self._attach_diagnostics(error, task)
                continue
            submitted.append((task, future, ipc_meta))
        for task, future, ipc_meta in submitted:
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                self._mark_broken(task.unit.label, exc)
                if error is None:
                    error = EngineError(
                        f"shard {task.unit.label!r}'s worker process died "
                        f"mid-window: {exc!r}"
                    )
                    error.__cause__ = exc
                    self._attach_diagnostics(error, task)
                continue
            except BaseException as exc:
                if error is None:
                    error = exc
                    self._attach_diagnostics(error, task)
                continue
            if ipc_meta is None:
                items, records, elapsed, stats = result
                task.unit.absorb(
                    items, task.watermark, task.window, records, elapsed, stats
                )
            else:
                blob, worker_decode, worker_encode = result
                t0 = time.perf_counter()
                items, records, elapsed, stats, telemetry = pickle.loads(blob)
                decode_up = time.perf_counter() - t0
                ipc = {
                    "bytes_down": ipc_meta["bytes_down"],
                    "bytes_up": len(blob),
                    "encode_down_seconds": ipc_meta["encode_down_seconds"],
                    "decode_down_seconds": worker_decode,
                    "encode_up_seconds": worker_encode,
                    "decode_up_seconds": decode_up,
                }
                task.unit.absorb(
                    items,
                    task.watermark,
                    task.window,
                    records,
                    elapsed,
                    stats,
                    telemetry=telemetry,
                    ipc=ipc,
                    worker=str(self._slot_of(task.unit.label)),
                )
        if error is not None:
            raise error

    def queue_depth(self) -> int:
        depth = 0
        for pool in self._pools:
            if pool is not None:
                pending = getattr(pool, "_pending_work_items", None)
                if pending is not None:
                    depth += len(pending)
        return depth

    # -- registration tracking ---------------------------------------------------------

    def view_added(self, shard_group: "ShardGroup", name: str) -> None:
        for unit in shard_group.units:
            if unit.label in self._installed:
                summary_sp, state, chronicles = unit.view_payload(name)
                self._pool_for(unit.label).submit(
                    worker_add_view, unit.label, name, summary_sp, state, chronicles
                ).result()

    def view_removed(self, shard_group: "ShardGroup", name: str) -> None:
        for unit in shard_group.units:
            if unit.label in self._installed:
                emptied = self._pool_for(unit.label).submit(
                    worker_remove_view, unit.label, name
                ).result()
                if emptied:
                    # The worker released the replica with its last view
                    # (a retired key class): forget the label entirely.
                    self._installed.discard(unit.label)
                    self._assignment.pop(unit.label, None)

    def reset_units(self, shard_groups: Sequence["ShardGroup"]) -> None:
        """Forget installed replicas; next dispatch reinstalls from state."""
        self._installed.clear()

    def close(self) -> None:
        """End the workers; a later window respawns and reinstalls them.

        The replicas died with the workers, so the installed set is
        cleared like after a restore: the next dispatch rebuilds each
        replica from the parent's absorbed state.
        """
        _shutdown_pools(self._pools)
        self._installed.clear()


# ---------------------------------------------------------------------------
# The engine object the facade holds
# ---------------------------------------------------------------------------


#: What one window has routed so far: unit -> chronicle name -> stamped rows.
Routed = Dict[ShardUnit, Dict[str, List[Row]]]


class FanOut:
    """One facade write's fan-out stage (:meth:`ShardEngine.open`).

    Opened *before* admission, so the root ``ingest`` span brackets
    admission through all-shards-visible (dispatch is synchronous): its
    duration is the end-to-end freshness gap and its identity is what
    ``shard_apply`` spans link to.  Fed each stamped batch as the group
    admits it; closed exactly once, when every routed-to shard receives
    **one** coalesced window — also after a batch was refused, so that
    what the group did admit is never left unmaintained.
    """

    __slots__ = ("_engine", "_group", "_span", "_admitted_at", "_pending")

    def __init__(self, engine: "ShardEngine", group: ChronicleGroup, path: str) -> None:
        self._engine = engine
        self._group = group
        obs = obs_runtime.ACTIVE
        self._span = (
            obs.tracer.start("ingest", group=group.name, path=path)
            if obs is not None and obs.trace
            else None
        )
        self._admitted_at = time.time()
        self._pending: Routed = {}

    def route(self, event: Mapping[str, Sequence[Row]]) -> None:
        """Bucket one admitted batch by owning shard unit."""
        self._engine._route(event, self._pending)

    def close(self, batches: int) -> None:
        """Dispatch the window, then end the ``ingest`` span."""
        try:
            if self._pending:
                self._engine._dispatch(
                    self._pending, self._group.watermark, self._admitted_at
                )
        finally:
            obs = obs_runtime.ACTIVE
            if self._span is not None and obs is not None:
                self._span.attrs["batches"] = batches
                obs.tracer.finish(self._span)


class ShardEngine:
    """The sharded engine's state: what the facade holds as ``_shards``.

    Owns the key classes, the merged read handles, the names of the
    views that fell back to the facade's serial registry, and the
    executor backend.  The facade stays the only front end: it admits
    through the group (serial, whatever maintains the views) and calls
    in here to place a view, to fan a write out, and wherever a catalog
    or introspection method has a sharded half.
    """

    def __init__(self, config: Any) -> None:
        self.shards: int = config.shards
        self.backend: ShardBackend = (
            ProcessShardBackend(config.shards, config.relay_telemetry)
            if config.executor == "process"
            else ShardBackend()
        )
        self.key_classes: Dict[Tuple[str, Any], ShardGroup] = {}
        self.merged: Dict[str, MergedView] = {}
        self.fallbacks: List[str] = []
        # Key-class names are never reused: a retired class's labels may
        # still name worker slots and metric series.
        self._key_classes_built = 0

    # -- view placement --------------------------------------------------------------

    def place(
        self, view_name: str, summary: Summary, materialize: bool
    ) -> Optional[MergedView]:
        """Partition *summary* across its key class's units.

        None when the view must stay on the facade's serial registry
        (:meth:`note_fallback` says why, once it is registered there).
        """
        spec = infer_partition(summary)
        if spec is UNPARTITIONABLE or (
            self.backend.name == "process" and not is_portable(summary)
        ):
            return None
        source_group = summary.expression.group
        key = (source_group.name, spec.canonical())
        shard_group = self.key_classes.get(key)
        if shard_group is None:
            shard_group = self.key_classes[key] = ShardGroup(
                f"kc{self._key_classes_built}", spec, source_group, self.shards
            )
            self._key_classes_built += 1
        shard_group.add_view(view_name, summary)
        merged = self.merged[view_name] = MergedView(view_name, summary, shard_group)
        if materialize:
            self._materialize(shard_group, view_name, summary)
        # After materialization, so an installed worker replica receives
        # the view's seeded state, not an empty partition.
        self.backend.view_added(shard_group, view_name)
        return merged

    def note_fallback(self, view_name: str, summary: Summary) -> None:
        """Warn about, count and record a view the serial registry took."""
        if infer_partition(summary) is UNPARTITIONABLE:
            message, category = (
                f"view {view_name!r} is unpartitionable (its summary key has "
                f"no copy lineage to every scanned chronicle); maintaining it "
                f"on the serial shard",
                UnpartitionableViewWarning,
            )
        else:
            # The process executor must ship the view definition to a
            # worker; one referencing process-local state (live relations,
            # lambdas in user aggregates) cannot cross.
            message, category = (
                f"view {view_name!r} has no portable definition (it "
                f"references process-local state such as a relation or a "
                f"non-picklable function); maintaining it on the serial shard",
                NonPortableViewWarning,
            )
        warnings.warn(message, category, stacklevel=4)
        obs = obs_runtime.ACTIVE
        if obs is not None:
            obs.metrics.inc("shard_fallback_total", view=view_name)
        self.fallbacks.append(view_name)

    @staticmethod
    def _materialize(shard_group: ShardGroup, view_name: str, summary: Summary) -> None:
        """Initialize a new view's partitions from stored history.

        Routes the retained rows of each scanned chronicle to their
        shards and folds them into *this view only* (sibling views of
        the key class already absorbed that history incrementally).
        """
        pending: Dict[int, Dict[str, List[Row]]] = {}
        for chronicle in {c.name: c for c in summary.expression.chronicles()}.values():
            if not chronicle.appended_count or chronicle.retention == 0:
                continue
            routed = shard_group.router.route(chronicle.name, list(chronicle.rows()))
            for index, rows in routed.items():
                pending.setdefault(index, {}).setdefault(
                    chronicle.name, []
                ).extend(rows)
        for index, event in pending.items():
            unit = shard_group.units[index]
            with unit.lock:
                view = unit.registry.view(view_name)
                deltas = {
                    name: Delta(unit.group[name].schema, tuple(rows))
                    for name, rows in event.items()
                }
                view.apply_event(deltas)

    def drop_view(self, name: str) -> bool:
        """Drop *name* if it is partitioned (True); else forget any fallback."""
        merged = self.merged.pop(name, None)
        if merged is None:
            if name in self.fallbacks:
                self.fallbacks.remove(name)
            return False
        shard_group = merged._shard_group
        self.backend.view_removed(shard_group, name)
        shard_group.remove_view(name)
        if not shard_group.views:
            # Retire the key class with its last view: nothing is left
            # to maintain, so nothing may be routed (or shipped) to it.
            del self.key_classes[
                (shard_group.source_group.name, shard_group.spec.canonical())
            ]
        return True

    # -- the fan-out stage -------------------------------------------------------------

    def open(self, group: ChronicleGroup, path: str) -> Optional[FanOut]:
        """The fan-out stage for one facade write (None: nothing to fan to)."""
        return FanOut(self, group, path) if self.key_classes else None

    def _route(self, event: Mapping[str, Sequence[Row]], pending: Routed) -> None:
        """Bucket one stamped event by owning shard unit into *pending*."""
        for shard_group in self.key_classes.values():
            routed_chronicles = shard_group.spec.keys
            for name, rows in event.items():
                if not rows or name not in routed_chronicles:
                    continue
                for index, bucket in shard_group.router.route(name, rows).items():
                    unit_event = pending.setdefault(shard_group.units[index], {})
                    unit_event.setdefault(name, []).extend(bucket)

    def _dispatch(
        self,
        pending: Routed,
        watermark: SequenceNumber,
        admitted_at: Optional[float] = None,
    ) -> None:
        tasks: List[ShardTask] = []
        obs = obs_runtime.ACTIVE
        window: Optional[ShardWindow] = None
        if admitted_at is None:
            admitted_at = time.time()
        if obs is not None:
            trace_id = parent_id = None
            if obs.trace:
                producer = obs.tracer.current()
                if producer is not None:
                    trace_id = producer.trace_id
                    parent_id = producer.span_id
            window = ShardWindow(trace_id, parent_id, admitted_at)
        for unit, event in pending.items():
            # Mark the dispatch on the admission thread *before* the
            # worker runs: a concurrent health probe or scrape sees the
            # in-flight window as lag, not as silence.
            unit.dispatched = watermark
            unit.dispatched_at = admitted_at
            tasks.append(ShardTask(unit, event, watermark, window))
            if obs is not None:
                obs.metrics.inc(
                    "shard_records_total",
                    sum(len(rows) for rows in event.values()),
                    shard=unit.label,
                )
                obs.metrics.set(
                    "shard_lag_batches",
                    max(0, watermark - unit.watermark),
                    shard=unit.label,
                )
        try:
            self.backend.run(tasks)
        except BaseException as exc:
            if obs is not None:
                obs.metrics.inc("engine_errors_total")
                # Watermarks and registry stats come from the database the
                # handle is bound to; the failing task's window summary and
                # the worker's last relayed spans (when the backend could
                # attach them) make a crash diagnosable from the bundle
                # without reproducing it.
                obs.incident(
                    "shard-worker-error",
                    error=repr(exc),
                    watermark=watermark,
                    window=getattr(exc, "shard_task_summary", None),
                    worker_spans=getattr(exc, "worker_spans", None),
                )
            raise

    def replay(self, event: Mapping[str, Sequence[Row]], watermark: SequenceNumber) -> None:
        """Recovery: re-apply one logged batch to the shards still behind it.

        Each routed shard unit receives the event only if its own
        watermark is behind — a snapshot taken mid-stream leaves nothing
        to re-apply on the shards it already covers.
        """
        pending: Routed = {}
        self._route(event, pending)
        behind = {
            unit: unit_event
            for unit, unit_event in pending.items()
            if unit.watermark < watermark
        }
        if behind:
            self._dispatch(behind, watermark)

    def resync(self) -> None:
        """Parent-side shard state was replaced by a restore.

        Unit watermarks advance to the restored admission watermark, and
        process-executor replicas are invalidated — the next window
        reinstalls them from the restored state.
        """
        for shard_group in self.key_classes.values():
            watermark = shard_group.source_group.watermark
            for unit in shard_group.units:
                with unit.lock:
                    unit.watermark = watermark
                    unit.dispatched = watermark
        self.backend.reset_units(tuple(self.key_classes.values()))

    # -- introspection -----------------------------------------------------------------

    def units(self) -> List[ShardUnit]:
        return [
            unit
            for shard_group in self.key_classes.values()
            for unit in shard_group.units
        ]

    def stats(self, serial: Dict[str, Any]) -> Dict[str, Any]:
        """*serial* (the facade registry's stats) merged with every unit's."""
        units = self.units()
        return ViewRegistry.merge_stats(
            [serial]
            + [unit.registry.stats for unit in units]
            # Under the process executor the maintaining registry lives
            # in the worker; each window returns its cumulative stats.
            + [unit.remote_stats for unit in units if unit.remote_stats]
        )

    def health(self, admission: SequenceNumber) -> ShardHealth:
        """A live freshness snapshot across every shard unit.

        Lag is measured against what was *dispatched to* each unit, not
        the global admission watermark — a shard that simply received no
        rows for a while is caught up, not lagging.  ``lag_seconds`` is
        staleness: zero when absorbed, else the age of the oldest
        in-flight window.
        """
        now = time.time()
        shards = tuple(
            ShardLag(
                shard=unit.label,
                watermark=unit.watermark,
                lag_batches=max(0, unit.dispatched - unit.watermark),
                lag_seconds=(
                    max(0.0, now - unit.dispatched_at)
                    if unit.dispatched > unit.watermark
                    else 0.0
                ),
                records_applied=unit.records_applied,
                windows_applied=unit.windows_applied,
                last_apply_at=unit.last_apply_at,
            )
            for unit in self.units()
        )
        return ShardHealth(
            admission_watermark=admission,
            shards=shards,
            queue_depth=self.backend.queue_depth(),
            at=now,
        )

    def close(self) -> None:
        self.backend.close()
