"""``EXPLAIN`` / ``EXPLAIN ANALYZE``: render and measure maintenance plans.

``EXPLAIN view`` answers "*why* is the compiled plan shaped the way it
is": it renders the plan tree the compiler built — fused select/project
chains collapsed into their chain head, sharing points flagged with
reference counts, roots the dispatch index seeds flagged as such, the
partition declaration, where the registry's
predicate dispatch index files the view (dispatch key and residual per
scanned chronicle), and the view's claimed language/IM class.  The
tree comes from :func:`repro.algebra.plan.describe_plan` against the
registry's live :class:`~repro.algebra.plan.PlanCompiler`, so it shows
the *actual* compiled structure (which depends on cross-view sharing),
not a recomputation.

``EXPLAIN ANALYZE view`` additionally drives a short instrumented
window — synthesized records appended through the normal ingest path
under a private :class:`~repro.obs.core.Observability` handle — and
annotates every operator with measured calls, output rows, wall time
(mean/max), the Theorem-4.2 work measure, and delta-cache hits.  The
window's ``maintain`` spans are folded by
:meth:`CostLedger.observe_maintain
<repro.obs.costmodel.CostLedger.observe_maintain>` into a ledger the
report holds, and described nodes read their entries *structurally*,
by the engine-prefixed operator-kind path (the ledger's "shape" key),
so EXPLAIN output, ledger rows, and span trees all line up.

Both forms work on the serial engine and on sharded databases (a
partitioned view is described from one shard's registry — every shard
compiles the same plan), except that ANALYZE raises
:class:`~repro.errors.ObservabilityError` for a view partitioned across
``executor="process"`` workers, which trace nothing.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra.plan import PlanNode, describe_aggregates, describe_plan, split_prefilter
from ..errors import ObservabilityError
from .core import Observability
from .costmodel import CostEntry, CostLedger, shape_paths

#: Instrumented-window defaults: enough appends for stable numbers,
#: small enough to finish in milliseconds.
DEFAULT_EVENTS = 8
DEFAULT_BATCH = 4


class ExplainReport:
    """The result of :func:`explain` — renderable and JSON-ready."""

    def __init__(
        self,
        view: str,
        engine: str,
        plan: PlanNode,
        language: Optional[str] = None,
        im_class: Optional[str] = None,
        partition: Any = None,
        dispatch: Optional[Dict[str, List[Dict[str, str]]]] = None,
        summary: Optional[str] = None,
        note: Optional[str] = None,
    ) -> None:
        self.view = view
        self.engine = engine
        self.plan = plan
        self.language = language
        self.im_class = im_class
        self.partition = partition
        #: Per scanned chronicle, one ``{"key", "residual"}`` entry per
        #: scan conjunction as the registry's dispatch index files it:
        #: ``key`` is the equality atom looked up by dict (absent → the
        #: view is on the chronicle's always list), ``residual`` the
        #: conjuncts still evaluated (absent → nothing left to test).
        self.dispatch = dispatch or {}
        #: The summarization step applied on top of the χ expression
        #: (Theorem 4.3's reshaping: grouping or projection).
        self.summary = summary
        self.note = note
        #: Filled by EXPLAIN ANALYZE.
        self.analyzed = False
        self.events = 0
        self.batch = 0
        #: The measured window's ``maintain`` spans, folded.
        self.ledger = CostLedger()

    @property
    def maintain(self) -> Optional[CostEntry]:
        """The per-view rollup of the measured window."""
        return self.ledger.get(self.view, "maintain", self.engine)

    @property
    def measurements(self) -> Dict[str, CostEntry]:
        """The measured operators of the window, by shape path."""
        return {e.shape: e for e in self.ledger.entries() if e.operator != "maintain"}

    # -- span → plan-node matching --------------------------------------------------

    def paths(self) -> Dict[int, str]:
        """Engine-prefixed shape path per described node (by ``id``).

        The same path construction the :class:`~repro.obs.costmodel
        .CostLedger` applies to span trees
        (:func:`~repro.obs.costmodel.shape_paths`): operator kinds from
        the maintain span down, ``Kind@i`` among same-kind siblings.
        """
        out: Dict[int, str] = {}

        def assign(nodes: Sequence[PlanNode], prefix: str) -> None:
            for node, path in zip(nodes, shape_paths(prefix, [n.kind for n in nodes])):
                out[id(node)] = path
                assign(node.children, path)

        assign([self.plan], self.engine)
        return out

    # -- output ---------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "view": self.view,
            "engine": self.engine,
            "plan": self.plan.to_dict(),
        }
        if self.language is not None:
            out["language"] = self.language
        if self.im_class is not None:
            out["im_class"] = self.im_class
        if self.partition is not None:
            out["partition"] = repr(self.partition)
        if self.dispatch:
            out["dispatch"] = {
                k: [dict(entry) for entry in v] for k, v in self.dispatch.items()
            }
        if self.summary:
            out["summary"] = self.summary
        if self.note:
            out["note"] = self.note
        if self.analyzed:
            maintain = self.maintain
            out["analyze"] = {
                "events": self.events,
                "batch": self.batch,
                "maintain": maintain.as_dict() if maintain else None,
                "operators": {
                    path: m.as_dict() for path, m in sorted(self.measurements.items())
                },
            }
        return out

    def format(self) -> str:
        verb = "EXPLAIN ANALYZE" if self.analyzed else "EXPLAIN"
        lines = [f"{verb} view {self.view!r} (engine={self.engine})"]
        if self.language is not None or self.im_class is not None:
            lines.append(f"  summary: {self.language} → {self.im_class}")
        if self.partition is not None:
            lines.append(f"  partition: {self.partition!r}")
        for chronicle, entries in sorted(self.dispatch.items()):
            for entry in entries:
                lines.append(
                    f"  dispatch[{chronicle}]: {entry.get('key', 'always')}"
                    f"; residual {entry.get('residual', 'none')}"
                )
        if self.summary:
            lines.append(f"  summarize: {self.summary}")
        if self.note:
            lines.append(f"  note: {self.note}")
        measurements = self.measurements
        if self.analyzed:
            maintain = self.maintain
            lines.append(
                f"  measured: {self.events} events × {self.batch} records"
                + (
                    f", maintain mean={_us(maintain.mean_seconds)}"
                    f" work/call={maintain.work / maintain.calls:.1f}"
                    if maintain is not None
                    else " (no maintain spans recorded)"
                )
            )
        lines.append("  plan:")

        paths = self.paths()
        tree: List[Tuple[str, Optional[CostEntry]]] = []

        def render(node: PlanNode, indent: int) -> None:
            label = node.kind
            if node.detail:
                label += f" {node.detail}"
            for fused in node.fused:
                label += f" ⨟ {fused}"
            if node.shared:
                label += f" [shared ×{node.refs}]"
            if node.seeded:
                label += " [seeded by dispatch]"
            measurement = measurements.get(paths[id(node)])
            tree.append(("    " + "  " * indent + label, measurement))
            for child in node.children:
                render(child, indent + 1)

        render(self.plan, 0)
        width = max(len(text) for text, _ in tree)
        for text, measurement in tree:
            if measurement is None:
                lines.append(text)
                continue
            columns = (
                f"calls={measurement.calls}"
                f" rows={measurement.rows}"
                f" mean={_us(measurement.mean_seconds)}"
                f" max={_us(measurement.max_seconds)}"
                f" work={measurement.work}"
            )
            cache_hits = measurement.counters.get("delta_cache_hit", 0)
            if cache_hits:
                columns += f" cache_hits={cache_hits}"
            lines.append(f"{text.ljust(width)}  {columns}")

        if self.analyzed:
            matched = {paths[id(node)] for node in self.plan.walk()}
            extras = sorted(set(measurements) - matched)
            if extras:
                lines.append("  unmatched spans (interpreter fallback inside a step):")
                for path in extras:
                    m = measurements[path]
                    lines.append(
                        f"    {path}  calls={m.calls} rows={m.rows}"
                        f" mean={_us(m.mean_seconds)}"
                    )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ExplainReport(view={self.view!r}, engine={self.engine!r})"


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}us"


# ---------------------------------------------------------------------------
# Building reports
# ---------------------------------------------------------------------------


def _locate_registry(db: Any, name: str) -> Tuple[Any, Optional[str]]:
    """The registry describing *name*: serial first, then shard units."""
    registry = db.registry
    if name in registry:
        return registry, None
    for group in db.shard_groups:
        for unit in group.units:
            if name in unit.registry:
                note = (
                    f"partitioned across {len(group.units)} shards; "
                    f"plan described from one shard (all shards compile "
                    f"the same plan)"
                )
                return unit.registry, note
    raise ObservabilityError(f"unknown view: {name!r}")


def _describe_summary(summary: Any) -> Optional[str]:
    grouping = getattr(summary, "grouping", None)
    if grouping is not None:
        aggs = describe_aggregates(summary.aggregates)
        text = f"group by ({', '.join(grouping) or 'ALL'}); {aggs}"
    else:
        names = getattr(summary, "names", None)
        if names is None:
            return None
        text = "π [" + ", ".join(names) + "]"
    having = getattr(summary, "having", None)
    if having is not None:
        text += f" having {having!r}"
    return text


def _describe_dispatch(predicate: Any) -> Dict[str, str]:
    """How the dispatch index files one scan conjunction (same split)."""
    atom, rest = split_prefilter(predicate)
    entry: Dict[str, str] = {}
    if atom is not None:
        entry["key"] = repr(atom)
    if rest:
        entry["residual"] = " AND ".join(repr(term) for term in rest)
    return entry


def explain(db: Any, name: str) -> ExplainReport:
    """Describe the maintenance plan of view *name* on *db*."""
    registry, note = _locate_registry(db, name)
    registered = registry._views[name]
    view = registered.view
    registry.ensure_compiled()
    plan = describe_plan(registered.root, registry._compiler)
    dispatch = {
        # No conjunction = an unfiltered scan: one always-entry with no test.
        chronicle: [_describe_dispatch(p) for p in predicates] or [{}]
        for chronicle, predicates in registered.prefilters.items()
    }
    language = getattr(view, "language", None)
    im_class = getattr(view, "im_class", None)
    return ExplainReport(
        view=name,
        engine="compiled",
        plan=plan,
        language=getattr(language, "value", None),
        im_class=getattr(im_class, "value", None),
        partition=registered.partition,
        dispatch=dispatch,
        summary=_describe_summary(getattr(view, "summary", None)),
        note=note,
    )


def explain_analyze(
    db: Any,
    name: str,
    events: int = DEFAULT_EVENTS,
    batch: int = DEFAULT_BATCH,
    record_factory: Optional[Any] = None,
    chronicle: Optional[str] = None,
) -> ExplainReport:
    """EXPLAIN plus a measured window of *events* × *batch* appends.

    Drives synthesized records (or *record_factory(index)* outputs)
    through the normal ingest path of the driver *chronicle* (default:
    the view's first) in the conformance profiler's measurement window
    (:func:`~repro.obs.conformance.drive`), then folds the view's
    ``maintain`` spans of the measured appends — every shard's, on a
    sharded database — into the report's ledger.  The database's own
    observability state is suspended for the window and restored after.
    """
    if events < 1:
        raise ValueError("events must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    report = explain(db, name)
    view = db.view(name)
    chronicles = view.chronicle_names()
    driver = chronicle if chronicle is not None else chronicles[0]
    if driver not in chronicles:
        raise ObservabilityError(
            f"chronicle {driver!r} does not feed view {name!r} "
            f"(it reads {sorted(chronicles)})"
        )
    from .conformance import drive, schema_record_factory

    if record_factory is None:
        record_factory = schema_record_factory(db.chronicle(driver).schema)
    records = map(record_factory, itertools.count())
    measured = drive(db, Observability(audit="off"), driver, name, records, batch, events)
    collected = [span for spans in measured for span in spans]
    if not collected:
        raise ObservabilityError(
            f"no maintenance spans recorded for view {name!r} — the "
            f"synthesized records may not pass its prefilter; pass a "
            f"record_factory that produces matching records"
        )
    report.analyzed = True
    report.events = events
    report.batch = batch
    for span in collected:
        report.ledger.observe_maintain(span)
    return report
