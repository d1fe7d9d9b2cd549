"""Per-layer tracing from outside: timing wrappers on public callables.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces a fixed
list of methods *on their classes* with timing wrappers before the
database is built (listeners and sinks bind those methods at build time),
and :meth:`Tracer.uninstall` puts the originals back.  A span is five
integers ``(name, start_ns, end_ns, parent, trace_id)`` in one flat
``array('q')``; a span's id is its position, *parent* is the position of
the span that was open when it started (-1 for a root), and every root —
one facade call made by the benchmark — starts a new *trace_id*.  The
array is written out when the pass ends and analysed afterwards:

    self time = duration - time covered by child spans
                - (number of child spans x the wrapper's own cost)

where the wrapper's own cost is calibrated once per pass on a no-op.
Worker processes are not wrapped; their numbers reach the parent through
the arguments of ``ShardUnit.absorb``, which its wrapper records.
"""

from __future__ import annotations

import json
import pickle
import time
from array import array
from statistics import median
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.algebra.plan import CompiledPlan
from repro.core.group import ChronicleGroup
from repro.parallel.engine import ProcessShardBackend, ShardUnit
from repro.parallel.router import ShardRouter
from repro.query.compiler import Compiler
from repro.relational.versioned import VersionedRelation
from repro.sca.view import PersistentView
from repro.storage.durability import DurabilityManager
from repro.storage.wal import ChronicleWal
from repro.views.registry import ViewRegistry

_now = time.perf_counter_ns
_FIELDS = 5
_NAME, _START, _END, _PARENT = range(_FIELDS - 1)  # trace_id is the fifth

#: Roots are opened by the benchmark around its own facade calls.
ROOT_WRITE = "root.write"
ROOT_UPDATE = "root.update"

#: (class, attribute, span name): the layer boundaries, by public callable.
BOUNDARIES: Tuple[Tuple[type, str, str], ...] = (
    (ChronicleGroup, "append", "core.admit"),
    (ViewRegistry, "on_event", "views.route"),
    (ViewRegistry, "ensure_compiled", "algebra.compile"),
    (CompiledPlan, "__call__", "algebra.plan"),
    (PersistentView, "apply_delta", "sca.fold"),
    (DurabilityManager, "admission_sink", "storage.wal_log"),
    (ChronicleWal, "log_batch", "storage.wal_write"),
    (DurabilityManager, "batch_committed", "storage.commit"),
    (DurabilityManager, "snapshot", "storage.snapshot"),
    (VersionedRelation, "lookup", "relational.lookup"),
    (Compiler, "compile_definition", "query.ddl_compile"),
    (ShardRouter, "route", "parallel.route"),
    (ProcessShardBackend, "run", "parallel.run"),
    (ShardUnit, "absorb", "parallel.absorb"),
)


class Mark(NamedTuple):
    """Where a pass stood: the id the next span gets, the last trace id,
    and the captured sums so far.  Two marks bracket the measured phase,
    so that nothing from set-up, the tail or a restart is counted in it."""

    span: int
    trace_id: int
    captured: Dict[str, float]


class Tracer:
    """Collects spans for one pass; see the module docstring."""

    def __init__(self) -> None:
        self.spans = array("q")
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._current = -1
        self._trace_id = 0
        self._originals: List[Tuple[type, str, Any]] = []
        #: Sums the wrappers capture from arguments and return values.
        self.captured: Dict[str, float] = {
            "wal_bytes": 0,
            "rows_folded": 0,
            "worker_seconds": 0.0,
            "bytes_up": 0,
        }
        #: Records each shard absorbed, per trace (one ingest window).
        self.shard_records: Dict[int, List[int]] = {}
        self.wrapper_ns = 0.0

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        *,
        root: bool = False,
        capture: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
    ) -> Callable[..., Any]:
        """*function* timed as one span; *capture* sees ``(args, result)``
        after the span has closed."""
        name_id = self._name_id(name)
        spans = self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._current
            if root:
                self._trace_id += 1
            position = len(spans)
            self._current = position // _FIELDS
            spans.extend((name_id, _now(), 0, parent, self._trace_id))
            try:
                result = function(*args, **kwargs)
            finally:
                spans[position + _END] = _now()
                self._current = parent
            if capture is not None:
                capture(args, result)
            return result

        return traced

    def _captures(self) -> Dict[str, Callable[[Tuple[Any, ...], Any], None]]:
        captured = self.captured

        def wal_write(args: Tuple[Any, ...], size: int) -> None:
            captured["wal_bytes"] += size

        def fold(args: Tuple[Any, ...], folded: int) -> None:
            captured["rows_folded"] += folded

        def absorb(args: Tuple[Any, ...], result: None) -> None:
            # absorb(self, per_view_items, watermark, window, records,
            #        worker_seconds, stats)
            captured["bytes_up"] += len(pickle.dumps(args[1], pickle.HIGHEST_PROTOCOL))
            captured["worker_seconds"] += args[5]
            self.shard_records.setdefault(self._trace_id, []).append(args[4])

        return {
            "storage.wal_write": wal_write,
            "sca.fold": fold,
            # Pickling is not free: as a span of its own it is subtracted
            # from parallel.run's self time instead of inflating it.
            "parallel.absorb": self.wrap(absorb, "trace.capture"),
        }

    def install(self) -> None:
        self._calibrate()
        captures = self._captures()
        for cls, attribute, name in BOUNDARIES:
            original = cls.__dict__[attribute]
            self._originals.append((cls, attribute, original))
            setattr(cls, attribute, self.wrap(original, name, capture=captures.get(name)))

    def uninstall(self) -> None:
        for cls, attribute, original in reversed(self._originals):
            setattr(cls, attribute, original)
        self._originals.clear()

    def _calibrate(self, calls: int = 20_000) -> None:
        """The cost one wrapped call adds to its parent's interval."""

        def noop() -> None:
            return None

        scratch = Tracer()
        wrapped = scratch.wrap(noop, "calibrate")
        started = _now()
        for _ in range(calls):
            noop()
        bare = _now() - started
        started = _now()
        for _ in range(calls):
            wrapped()
        self.wrapper_ns = max(0.0, (_now() - started - bare) / calls)

    def mark(self) -> Mark:
        return Mark(len(self.spans) // _FIELDS, self._trace_id, dict(self.captured))

    def dump(self, path: str) -> None:
        """Write the flat span array and the name table beside it."""
        with open(path, "wb") as handle:
            self.spans.tofile(handle)
        with open(path + ".names.json", "w") as handle:
            json.dump(self.names, handle)

    # -- analysis ---------------------------------------------------------------

    def layers(self, first: int = 0, last: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name over ids ``[first, last)``: count, total and self ns."""
        spans = self.spans
        total = len(spans) // _FIELDS
        last = total if last is None else last
        child_ns = [0] * total
        child_count = [0] * total
        for span in range(first, last):
            base = span * _FIELDS
            parent = spans[base + _PARENT]
            if parent >= 0:
                child_ns[parent] += spans[base + _END] - spans[base + _START]
                child_count[parent] += 1
        out: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "total_ns": 0, "self_ns": 0.0} for name in self.names
        }
        for span in range(first, last):
            base = span * _FIELDS
            duration = spans[base + _END] - spans[base + _START]
            own = duration - child_ns[span] - child_count[span] * self.wrapper_ns
            layer = out[self.names[spans[base + _NAME]]]
            layer["count"] += 1
            layer["total_ns"] += duration
            layer["self_ns"] += max(0.0, own)
        return out

    def durations(self, name: str, first: int = 0, last: Optional[int] = None) -> List[int]:
        spans = self.spans
        name_id = self._name_ids.get(name)
        last = len(spans) // _FIELDS if last is None else last
        return [
            spans[span * _FIELDS + _END] - spans[span * _FIELDS + _START]
            for span in range(first, last)
            if spans[span * _FIELDS + _NAME] == name_id
        ]


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(
    tracer: Tracer,
    traced: Dict[str, Any],
    untraced: Dict[str, Any],
    observed: Optional[Dict[str, Any]],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Every per-layer metric of one workload, and each layer's share of
    the traced write time.

    *traced*, *untraced* and *observed* are the pass results of
    :func:`benchmarks.e2e.measure.run_pass`.  A layer a workload does not
    touch reports 0.
    """
    before, after = traced["measured_marks"]
    measured_from, measured_to = before.span, after.span
    setup = tracer.layers(0, measured_from)
    layers = tracer.layers(measured_from, measured_to)
    captured = {key: after.captured[key] - before.captured[key] for key in after.captured}
    shard_records = [
        shards
        for trace_id, shards in tracer.shard_records.items()
        if before.trace_id < trace_id <= after.trace_id
    ]

    def self_us(name: str) -> float:
        return layers[name]["self_ns"] / 1e3

    def count(name: str) -> float:
        return layers[name]["count"]

    records = traced["records"]
    stats = traced["stats"]
    counters = traced["counters"]
    events = stats.get("events", 0)
    root_ns = layers[ROOT_WRITE]["total_ns"] + layers[ROOT_UPDATE]["total_ns"]
    facade_self_us = self_us(ROOT_WRITE)
    # The first window spawns the workers and installs the replicas; what
    # it costs beyond a steady window is the spawn.
    first_runs = tracer.durations("parallel.run", 0, measured_from)[:1]
    steady_runs = tracer.durations("parallel.run", measured_from, measured_to)
    spawn_s = (first_runs[0] - median(steady_runs)) / 1e9 if first_runs and steady_runs else 0.0
    windows = count("parallel.run")
    imbalance = [
        max(shards) / (sum(shards) / len(shards)) for shards in shard_records if sum(shards)
    ]
    workers = max((len(shards) for shards in shard_records), default=0)
    wal_batches = count("storage.wal_log")
    snapshots = count("storage.snapshot")
    restart = traced["restart"]
    values = {
        "core.admit_self_us_per_batch": _per(self_us("core.admit"), count("core.admit")),
        "core.facade_self_us_per_call": _per(facade_self_us, count(ROOT_WRITE)),
        "views.route_self_us_per_event": _per(self_us("views.route"), count("views.route")),
        "views.candidates_per_event": _per(stats.get("candidate_views", 0), events),
        "views.prefilter_skip_ratio": _per(
            stats.get("prefilter_hits", 0), stats.get("candidate_views", 0)
        ),
        "views.maintained_per_event": _per(stats.get("maintained_views", 0), events),
        "algebra.plan_self_us_per_call": _per(self_us("algebra.plan"), count("algebra.plan")),
        "algebra.plan_calls_per_event": _per(count("algebra.plan"), count("views.route")),
        "algebra.delta_cache_hit_ratio": _per(
            counters["delta_cache_hit"], count("algebra.plan")
        ),
        "algebra.compile_s": setup["algebra.compile"]["total_ns"] / 1e9,
        "sca.fold_self_us_per_row": _per(self_us("sca.fold"), captured["rows_folded"]),
        "sca.rows_folded_per_record": _per(captured["rows_folded"], records),
        "complexity.index_probes_per_record": _per(counters["index_probe"], records),
        "complexity.view_reads_per_record": _per(counters["view_read"], records),
        "complexity.aggregate_steps_per_record": _per(counters["aggregate_step"], records),
        "complexity.chronicle_reads": counters["chronicle_read"],
        "storage.wal_log_self_us_per_batch": _per(
            self_us("storage.wal_log") + self_us("storage.wal_write"), wal_batches
        ),
        "storage.commit_self_us_per_batch": _per(self_us("storage.commit"), wal_batches),
        "storage.snapshot_s_per_snapshot": _per(self_us("storage.snapshot") / 1e6, snapshots),
        "storage.snapshots": snapshots,
        "storage.wal_bytes_per_record": _per(captured["wal_bytes"], records if wal_batches else 0),
        "storage.recovery_replayed_batches": restart["replayed_batches"],
        "storage.checkpoint_bytes_per_view_row": _per(
            restart["persisted_bytes"], restart["view_rows"]
        ),
        "relational.update_self_us_per_update": _per(self_us(ROOT_UPDATE), count(ROOT_UPDATE)),
        "relational.lookups_per_record": _per(count("relational.lookup"), records),
        "query.ddl_compile_s": setup["query.ddl_compile"]["total_ns"] / 1e9,
        "parallel.route_self_us_per_record": _per(
            self_us("parallel.route"), records if windows else 0
        ),
        "parallel.run_wait_share": _per(layers["parallel.run"]["self_ns"], root_ns),
        "parallel.absorb_self_us_per_window": _per(self_us("parallel.absorb"), windows),
        "parallel.worker_busy_share": _per(
            captured["worker_seconds"] * 1e9, workers * root_ns
        ),
        "parallel.imbalance_ratio": _per(sum(imbalance), len(imbalance)),
        "parallel.bytes_up_per_record": _per(captured["bytes_up"], records if windows else 0),
        "parallel.worker_spawn_s": max(0.0, spawn_s),
        "obs.observe_on_ratio": (
            _per(observed["values"]["ingest_records_per_s"], untraced["values"]["ingest_records_per_s"])
            if observed is not None
            else 0.0
        ),
        "trace.overhead_ratio": _per(
            untraced["values"]["ingest_records_per_s"],
            traced["values"]["ingest_records_per_s"],
        ),
        # What no wrapped callable covers: the facade's own glue.
        "trace.residual_share": _per(facade_self_us * 1e3, root_ns),
        "query_p50_us": untraced["query_p50_us"],
        "restart_s": untraced["restart_s"],
    }
    shares = {
        name: layer["self_ns"] / root_ns
        for name, layer in sorted(layers.items())
        if root_ns and layer["count"]
    }
    return values, shares
