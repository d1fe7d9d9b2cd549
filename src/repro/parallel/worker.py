"""The worker-process half of the ``process`` shard executor.

A worker process holds a :class:`UnitReplica` per shard label it was
assigned: mirror chronicles (``retention=0``) rebuilt from portable
schema specs, plus a private :class:`~repro.views.registry.ViewRegistry`
of views rebuilt from portable summary specs
(:func:`~repro.algebra.plan.summary_spec`) and seeded from the parent's
fold-state snapshot.  The replica is a faithful reconstruction of the
parent-side :class:`~repro.parallel.engine.ShardUnit` — same registry,
same coalesced ``ingest_stamped`` maintenance path — so the per-window
fold it computes is exactly what the inline executor would compute in
place.

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

Observability stays on the parent side: spawned workers install no
handle, and the parent's ``shard_apply`` span carries each window's
record count and the worker's wall time.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing.connection import wait as _wait_for
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..algebra.plan import build_schema, build_summary
from ..core.chronicle import Chronicle
from ..core.group import ChronicleGroup
from ..core.sequence import SequenceNumber
from ..relational.tuples import Row
from ..sca.view import PersistentView
from ..views.registry import ViewRegistry

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


class UnitReplica:
    """A worker-process reconstruction of one parent-side shard unit."""

    def __init__(self, spec: ShardUnitSpec) -> None:
        self.label = spec.label
        self.group = ChronicleGroup(f"{spec.label}::replica", start=spec.watermark + 1)
        self.registry = ViewRegistry()
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
