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
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from threading import RLock
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..algebra.ast import Node
from ..algebra.plan import (
    UNPARTITIONABLE,
    PartitionSpec,
    infer_partition,
    is_portable,
    schema_spec,
    summary_spec,
)
from ..core.chronicle import Chronicle
from ..core.group import ChronicleGroup
from ..core.sequence import SequenceNumber
from ..errors import EngineError
from ..obs import runtime as obs_runtime
from ..relational.algebra import Table
from ..relational.tuples import Row
from ..sca.summarize import Summary
from ..sca.view import PersistentView, summary_key
from ..views.registry import ViewRegistry
from .router import ShardRouter
from .worker import (
    ShardUnitSpec,
    worker_add_view,
    worker_apply,
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

    def swap(node: Node, children: Tuple[Node, ...]) -> Node:
        if node.tag is None:
            raise EngineError(
                f"cannot rebind {type(node).__name__} onto shard mirrors; "
                f"views containing it are unpartitionable"
            )
        params = (
            chronicles[value.name] if name == "chronicle" else value
            for name, value in zip(node.param_names, node.params)
        )
        return type(node)(*children, *params)

    return node.fold(swap)


def rebind_summary(summary: Summary, chronicles: Mapping[str, Chronicle]) -> Summary:
    """Rebuild a summary specification over mirror chronicles."""
    return summary.over(rebind(summary.expression, chronicles))


# ---------------------------------------------------------------------------
# Shard units and key classes
# ---------------------------------------------------------------------------


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
        "remote_stats",
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
        self.registry = ViewRegistry()
        self.group.subscribe(self.registry.on_event)
        self.lock = RLock()
        #: Highest sequence number this shard has absorbed (-1 initially).
        self.watermark: SequenceNumber = -1
        #: Cumulative registry stats of this shard's worker-process
        #: replica (empty unless the process executor maintains it —
        #: the parent-side registry then never sees events itself).
        self.remote_stats: Dict[str, Any] = {}

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

    def apply(self, event: Mapping[str, Sequence[Row]], watermark: SequenceNumber) -> None:
        """Absorb one coalesced maintenance window in place.

        Runs on the admitting thread, inside the write's ``ingest`` span,
        so the ``shard_apply`` span nests under it.
        """
        obs = obs_runtime.ACTIVE
        with self.lock:
            span = (
                obs.tracer.start(
                    "shard_apply",
                    shard=self.label,
                    records=sum(len(rows) for rows in event.values()),
                )
                if obs is not None
                else None
            )
            try:
                self.group.ingest_stamped(event, watermark)
            finally:
                if span is not None:
                    obs.tracer.finish(span)
            self.watermark = watermark

    def absorb(
        self,
        per_view_items: Mapping[str, Sequence[Tuple[Any, Any]]],
        watermark: SequenceNumber,
        window: None,
        records: int,
        worker_seconds: float,
        stats: Dict[str, Any],
    ) -> None:
        """Make one worker-process window visible (runs on the parent).

        The worker returns only the ``(key, state)`` pairs the window
        touched per view; this merges them into the parent-side
        partition views under the unit lock — the same snapshot
        consistency readers get from the inline executor — and advances
        the watermark, with the worker's wall-clock attached to the
        ``shard_apply`` span.  *window* is unused (always ``None``); it
        stays in the signature because callers pass the arguments by
        position.
        """
        obs = obs_runtime.ACTIVE
        with self.lock:
            span = (
                obs.tracer.start(
                    "shard_apply",
                    shard=self.label,
                    records=records,
                    worker_seconds=worker_seconds,
                )
                if obs is not None
                else None
            )
            try:
                for name, items in per_view_items.items():
                    self.registry.view(name).absorb_states(items)
            finally:
                if span is not None:
                    obs.tracer.finish(span)
            self.remote_stats = stats
            self.watermark = watermark

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
        key = summary_key(self.name, self.summary, key)
        sg = self._shard_group
        unit = sg.units[sg.router.shard_of_key(key)]
        with unit.lock:
            return self._partition(unit).lookup(key)

    def value(self, key: Sequence[Any], output: str) -> Any:
        key = summary_key(self.name, self.summary, key)
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
        self,
        items: Sequence[Tuple[Any, Any]],
        maintenance_count: int = 0,
        upsert: bool = False,
    ) -> None:
        """Restore the partitions from checkpointed fold state.

        Items are routed to their owning shard by the (stable) router
        hash — which is why restore works across processes at all — and
        each partition rebuilds its rows from its bucket (or, with
        *upsert*, replaces only the bucket's keys: a delta snapshot).
        The combined maintenance count is assigned to shard 0 so the
        merged total round-trips.
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
                    upsert=upsert,
                )

    def record_touched(self) -> None:
        """Start recording touched keys in every partition."""
        for unit in self._shard_group.units:
            with unit.lock:
                self._partition(unit).record_touched()

    def take_touched(self) -> Optional[List[Tuple[Any, Any]]]:
        """Union of the partitions' touched items (keys are disjoint);
        None when some partition is not recording."""
        items: List[Tuple[Any, Any]] = []
        for unit in self._shard_group.units:
            with unit.lock:
                touched = self._partition(unit).take_touched()
            if touched is None:
                return None
            items.extend(touched)
        return items

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
    the routing and the watermark are already fixed.
    """

    __slots__ = ("unit", "event", "watermark")

    def __init__(
        self,
        unit: ShardUnit,
        event: Mapping[str, Sequence[Row]],
        watermark: SequenceNumber,
    ) -> None:
        self.unit = unit
        self.event = event
        self.watermark = watermark

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
            task.unit.apply(task.event, task.watermark)

    def view_added(self, shard_group: "ShardGroup", name: str) -> None:
        """A view was registered after workers may have state."""

    def view_removed(self, shard_group: "ShardGroup", name: str) -> None:
        """A view was dropped."""

    def reset_units(self) -> None:
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
    tuples go down and touched ``(key, state)`` pairs come back, whether
    or not an observability handle is installed: the workers trace
    nothing, and the parent's ``shard_apply`` span is the window's whole
    observable record.

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

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
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

    def _failed(self, task: ShardTask, exc: BaseException, when: str = "") -> BaseException:
        """The error a caller sees for *task*; a dead worker breaks its slot."""
        if isinstance(exc, BrokenProcessPool):
            self._mark_broken(task.unit.label, exc)
            cause, exc = exc, EngineError(
                f"shard {task.unit.label!r}'s worker process died{when}: {exc!r}"
            )
            exc.__cause__ = cause
        try:  # the failing window's summary, for the incident bundle
            exc.shard_task_summary = task.summary()  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - exotic exception types
            pass
        return exc

    # -- dispatch ----------------------------------------------------------------------

    def run(self, tasks: Sequence[ShardTask]) -> None:
        failures: List[BaseException] = []
        # Every missing replica's install is submitted before any is
        # awaited, so the workers spawn and rebuild side by side.
        installs = []
        for task in tasks:
            if task.unit.label not in self._installed:
                try:
                    pool = self._pool_for(task.unit.label)
                    installs.append((task, pool.submit(worker_install, task.unit.spec())))
                except (BrokenProcessPool, EngineError) as exc:
                    # A dead pool refuses submit synchronously; a slot
                    # that died before makes _pool_for refuse.
                    failures.append(self._failed(task, exc))
        for task, future in installs:
            try:
                future.result()
                self._installed.add(task.unit.label)
            except BrokenProcessPool as exc:
                failures.append(self._failed(task, exc))
        submitted: List[Tuple[ShardTask, Any]] = []
        for task in tasks:
            if task.unit.label not in self._installed:
                continue  # its install failed above
            # The one wire protocol: stamped value tuples and the watermark.
            payload = {name: [row.values for row in rows] for name, rows in task.event.items()}
            try:
                pool = self._pool_for(task.unit.label)
                submitted.append(
                    (task, pool.submit(worker_apply, task.unit.label, payload, task.watermark))
                )
            except BrokenProcessPool as exc:
                failures.append(self._failed(task, exc))
        for task, future in submitted:
            try:
                items, records, elapsed, stats = future.result()
            except BaseException as exc:
                failures.append(self._failed(task, exc, " mid-window"))
                continue
            task.unit.absorb(items, task.watermark, None, records, elapsed, stats)
        if failures:
            raise failures[0]

    # -- registration tracking ---------------------------------------------------------

    def view_added(self, shard_group: "ShardGroup", name: str) -> None:
        futures = [
            self._pool_for(unit.label).submit(
                worker_add_view, unit.label, name, *unit.view_payload(name)
            )
            for unit in shard_group.units
            if unit.label in self._installed
        ]
        for future in futures:
            future.result()

    def view_removed(self, shard_group: "ShardGroup", name: str) -> None:
        units = [unit for unit in shard_group.units if unit.label in self._installed]
        futures = [
            self._pool_for(unit.label).submit(worker_remove_view, unit.label, name)
            for unit in units
        ]
        for unit, future in zip(units, futures):
            if future.result():
                # The worker released the replica with its last view
                # (a retired key class): forget the label entirely.
                self._installed.discard(unit.label)
                self._assignment.pop(unit.label, None)

    def reset_units(self) -> None:
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
    duration is the end-to-end freshness gap, and every ``shard_apply``
    span nests under it.  Fed each stamped batch as the group
    admits it; closed exactly once, when every routed-to shard receives
    **one** coalesced window — also after a batch was refused, so that
    what the group did admit is never left unmaintained.
    """

    __slots__ = ("_engine", "_group", "_span", "_pending")

    def __init__(self, engine: "ShardEngine", group: ChronicleGroup, path: str) -> None:
        self._engine = engine
        self._group = group
        obs = obs_runtime.ACTIVE
        self._span = (
            obs.tracer.start("ingest", group=group.name, path=path)
            if obs is not None
            else None
        )
        self._pending: Routed = {}

    def route(self, event: Mapping[str, Sequence[Row]]) -> None:
        """Bucket one admitted batch by owning shard unit."""
        self._engine._route(event, self._pending)

    def close(self, batches: int) -> None:
        """Dispatch the window, then end the ``ingest`` span."""
        try:
            if self._pending:
                self._engine._dispatch(self._pending, self._group.watermark)
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
            ProcessShardBackend(config.shards)
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
        if obs is None:
            self.fallbacks.append(view_name)
        else:
            with obs.tracer.span("shard_fallback", view=view_name):
                self.fallbacks.append(view_name)

    @staticmethod
    def _materialize(shard_group: ShardGroup, view_name: str, summary: Summary) -> None:
        """Initialize a new view's partitions from stored history.

        Routes the retained rows of each scanned chronicle to their shards
        and replays each unit's rows, as one untraced event, into a registry
        holding *this view only* (sibling views of the key class already
        absorbed that history incrementally).
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
            with unit.lock, obs_runtime.suspended():
                replay = ViewRegistry()
                replay.register(unit.registry.view(view_name))
                replay.on_event(unit.group, {name: tuple(rows) for name, rows in event.items()})

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

    def _dispatch(self, pending: Routed, watermark: SequenceNumber) -> None:
        tasks = [ShardTask(unit, event, watermark) for unit, event in pending.items()]
        try:
            self.backend.run(tasks)
        except BaseException as exc:
            obs = obs_runtime.ACTIVE
            if obs is not None:
                # Watermarks and registry stats come from the database the
                # handle is bound to; the failing task's window summary
                # (when the backend could attach it) makes a crash
                # diagnosable from the bundle without reproducing it.
                obs.incident(
                    "shard-worker-error",
                    failure=True,
                    error=repr(exc),
                    watermark=watermark,
                    window=getattr(exc, "shard_task_summary", None),
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
        self.backend.reset_units()

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

    def close(self) -> None:
        self.backend.close()
