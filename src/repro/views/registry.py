"""Identifying affected persistent views (Section 5.2).

"When multiple views are to be maintained over the same chronicle, each
update to the chronicle would require checking all the views to determine
if they need to be updated."  The registry avoids that with two indexes,
both built when a view is registered:

1. **dependency index** — chronicle name → views depending on it, so an
   append only considers views over the touched chronicles;
2. **predicate dispatch index** — for each (view, chronicle) pair, the
   conjunction of selection predicates sitting between the view's scan of
   that chronicle and any non-selection operator is the view's
   *prefilter*: a delta none of whose rows pass it cannot change the
   view, so its (more expensive) delta propagation is skipped.  This is
   the cheap update-independence test of [LS93] specialized to CA's
   predicate fragment.  Conjunctions containing an equality atom
   ``attr = const`` are filed under ``attr position → const``; an event
   row finds them with one dict lookup per indexed attribute and only
   the *residual* conjuncts of the views found are evaluated.  Views
   with no such atom sit on a short per-chronicle *always* list.  The
   cost of finding the affected views is proportional to rows × indexed
   attributes + matching views, not to registered views.

The registry is also the natural owner of periodic view sets: only the
views *active* for the current interval are maintained (third bullet of
Section 5.2).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..algebra.ast import ChronicleScan, Node, Select
from ..algebra.plan import (
    CompiledPlan,
    PlanCompiler,
    ValuesPredicate,
    compile_prefilter,
    infer_partition,
)
from ..core.chronicle import maintenance_guard
from ..core.delta import Delta
from ..core.group import ChronicleGroup
from ..errors import ViewRegistrationError
from ..obs import runtime as obs_runtime
from ..relational.predicate import Predicate, conjunction
from ..relational.schema import Schema
from ..relational.tuples import Row
from ..sca.maintenance import event_deltas
from ..sca.view import PersistentView
from .periodic import PeriodicViewSet


def scan_prefilters(expression: Node) -> Dict[str, List[Predicate]]:
    """Per-chronicle prefilter predicates of an expression.

    For every base-chronicle scan, collect the selection predicates that
    apply directly above it (before any reshaping operator), then AND
    them per chronicle.  Rows failing the prefilter can be discarded
    before delta propagation.  A chronicle scanned twice with different
    filters gets the OR-semantics of "any scan might accept the row" by
    keeping the predicate lists separate — callers must pass a row when
    *any* scan's conjunction accepts it.
    """
    filters: Dict[str, List[Predicate]] = {}
    unfiltered: set = set()

    def descend(node: Node, pending: Tuple[Predicate, ...]) -> None:
        if isinstance(node, Select):
            descend(node.child, pending + (node.predicate,))
            return
        if isinstance(node, ChronicleScan):
            name = node.chronicle.name
            filters.setdefault(name, [])
            if pending and name not in unfiltered:
                filters[name].append(conjunction(list(pending)))
            else:
                # An unfiltered scan accepts everything: no prefilter for
                # this chronicle, regardless of other (filtered) scans.
                unfiltered.add(name)
                filters[name] = []
            return
        for child in node.children:
            descend(child, ())

    descend(expression, ())
    return filters


class RegisteredView:
    """Registry bookkeeping for one persistent view.

    *rank* is the view's registration order; survivors of an event are
    maintained by ascending rank.  *root* is the view's interned
    expression; *plan* its :class:`~repro.algebra.plan.CompiledPlan`,
    ``None`` until the registry next compiles.
    """

    __slots__ = ("view", "rank", "prefilters", "root", "plan", "partition")

    def __init__(self, view: PersistentView, rank: int, root: Node) -> None:
        self.view = view
        self.rank = rank
        self.prefilters = scan_prefilters(view.expression)
        self.root = root
        self.plan: Optional[CompiledPlan] = None
        #: Partition declaration (PartitionSpec or UNPARTITIONABLE) —
        #: the sharded engine routes records by it.
        self.partition = infer_partition(view.summary)


#: One filed scan conjunction: (registration rank, view, compiled test over
#: a raw value tuple — ``None`` accepts every row).
DispatchEntry = Tuple[int, RegisteredView, Optional[ValuesPredicate]]


class ChronicleDispatch:
    """Both indexes of one chronicle: its dependent views and their filters.

    *views* is the dependency index (rank → view, so in registration
    order).  Every scan conjunction of every dependent view is filed
    exactly once in the predicate dispatch index: under
    ``tables[position][constant]`` when it contains the atom
    ``attribute = constant`` (the entry then tests only the residual
    conjuncts), on the *always* list otherwise.  A view scanning the
    chronicle twice files two entries and is affected when either
    accepts a row; a view with an unfiltered scan files one always-entry
    with no test.
    """

    __slots__ = ("views", "always", "tables")

    def __init__(self) -> None:
        self.views: Dict[int, RegisteredView] = {}
        self.always: List[DispatchEntry] = []
        self.tables: Dict[int, Dict[Any, List[DispatchEntry]]] = {}

    def add(self, registered: RegisteredView, predicates: List[Predicate], schema: Schema) -> None:
        """File *registered* and its scan conjunctions over this chronicle."""
        self.views[registered.rank] = registered
        if not predicates:  # some scan of the chronicle is unfiltered
            self.always.append((registered.rank, registered, None))
            return
        for predicate in predicates:
            key, residual = compile_prefilter(predicate, schema)
            if key is None:
                self.always.append((registered.rank, registered, residual))
            else:
                position, constant = key
                self.tables.setdefault(position, {}).setdefault(constant, []).append(
                    (registered.rank, registered, residual)
                )

    def discard(self, rank: int) -> None:
        """Remove the view registered as *rank* and every entry it filed."""
        del self.views[rank]
        self.always = [entry for entry in self.always if entry[0] != rank]
        for position, table in list(self.tables.items()):
            for constant, bucket in list(table.items()):
                kept = [entry for entry in bucket if entry[0] != rank]
                if kept:
                    table[constant] = kept
                else:
                    del table[constant]
            if not table:
                del self.tables[position]

    def route(
        self, rows: Tuple[Row, ...], hit: Dict[int, RegisteredView], examined: Set[int]
    ) -> None:
        """Add the views some row of *rows* might affect to *hit* (by rank).

        *examined* collects the rank of every view looked at.  Row values
        come from typed domains (numbers, strings, booleans, NULL), all
        hashable; NULL finds no bucket because no constant is NULL.
        """
        for rank, registered, test in self.always:
            if rank in hit:
                continue
            examined.add(rank)
            if test is None:
                hit[rank] = registered
                continue
            for row in rows:
                if test(row.values):
                    hit[rank] = registered
                    break
        tables = self.tables
        if not tables:
            return
        for row in rows:
            values = row.values
            for position, table in tables.items():
                bucket = table.get(values[position])
                if bucket is None:
                    continue
                for rank, registered, test in bucket:
                    if rank in hit:
                        continue
                    examined.add(rank)
                    if test is None or test(values):
                        hit[rank] = registered


class ViewRegistry:
    """Owns every persistent view of a database and routes appends.

    Maintenance runs through compiled plans (:mod:`repro.algebra.plan`):
    view expressions are structurally interned at registration so
    equivalent subexpressions across independently-defined views share one
    node (and one delta computation per event), and each view's delta
    propagation runs as a fused closure pipeline.  Plans are (re)compiled
    lazily after registration changes; appends never pay compilation cost
    twice.

    Parameters
    ----------
    prefilter:
        Enable the selection prefilter: route each event through the
        predicate dispatch index and maintain only the views it returns.
        Off, every view over a touched chronicle is maintained (shard
        units run that way; benchmark E9 measures the difference).
    """

    def __init__(self, prefilter: bool = True) -> None:
        self.prefilter = prefilter
        self._views: Dict[str, RegisteredView] = {}
        self._periodic: Dict[str, PeriodicViewSet] = {}
        self._by_chronicle: Dict[str, ChronicleDispatch] = {}
        self._next_rank = 0
        self._stats = {
            "events": 0,
            "candidate_views": 0,
            # Candidates the router looked at: the views a dispatch lookup
            # returned plus the always list (every candidate with the
            # prefilter off).
            "views_examined": 0,
            "maintained_views": 0,
            # Prefilter effectiveness: a *hit* is a candidate view the
            # prefilter proved unaffected (its maintenance was skipped);
            # a *miss* is a candidate that had to be maintained anyway.
            "prefilter_hits": 0,
            "prefilter_misses": 0,
        }
        # Per-view maintenance observations (span count + last append
        # latency), populated only while observability is installed —
        # the numbers come from the ``maintain`` spans.
        self._per_view: Dict[str, Dict[str, float]] = {}
        self._compiler = PlanCompiler()
        self._plans_stale = False

    # -- registration -----------------------------------------------------------------

    def register(self, view: PersistentView) -> PersistentView:
        """Register a persistent view for maintenance."""
        if view.name in self._views or view.name in self._periodic:
            raise ViewRegistrationError(f"view name {view.name!r} already registered")
        registered = RegisteredView(
            view, self._next_rank, self._compiler.add_root(view.expression)
        )
        self._next_rank += 1
        # Sharing boundaries may have moved: recompile lazily, off the
        # append path.
        self._plans_stale = True
        self._views[view.name] = registered
        schemas = {c.name: c.schema for c in view.expression.chronicles()}
        for name, predicates in registered.prefilters.items():
            dispatch = self._by_chronicle.get(name)
            if dispatch is None:
                dispatch = self._by_chronicle[name] = ChronicleDispatch()
            dispatch.add(registered, predicates, schemas[name])
        return view

    def register_periodic(self, view_set: PeriodicViewSet, group: ChronicleGroup) -> PeriodicViewSet:
        """Register a periodic view set (it handles its own routing)."""
        if view_set.name in self._views or view_set.name in self._periodic:
            raise ViewRegistrationError(f"view name {view_set.name!r} already registered")
        self._periodic[view_set.name] = view_set
        view_set.attach(group)
        return view_set

    def unregister(self, name: str) -> None:
        """Drop a registered view."""
        view_set = self._periodic.pop(name, None)
        if view_set is not None:
            view_set.detach()
            return
        registered = self._views.pop(name, None)
        if registered is None:
            raise ViewRegistrationError(f"no view named {name!r}")
        self._per_view.pop(name, None)
        for chronicle_name in registered.prefilters:
            self._by_chronicle[chronicle_name].discard(registered.rank)
        self._compiler.remove_root(registered.root)
        self._plans_stale = True

    # -- lookup ------------------------------------------------------------------------

    def view(self, name: str) -> PersistentView:
        try:
            return self._views[name].view
        except KeyError:
            raise ViewRegistrationError(f"no view named {name!r}") from None

    def periodic(self, name: str) -> PeriodicViewSet:
        try:
            return self._periodic[name]
        except KeyError:
            raise ViewRegistrationError(f"no periodic view named {name!r}") from None

    def views(self) -> Iterator[PersistentView]:
        for registered in self._views.values():
            yield registered.view

    def __contains__(self, name: object) -> bool:
        return name in self._views or name in self._periodic

    def __len__(self) -> int:
        return len(self._views) + len(self._periodic)

    @staticmethod
    def merge_stats(many: "Iterable[Dict[str, Any]]") -> Dict[str, Any]:
        """Merge several registries' :attr:`stats` dicts into one.

        The sharded engine keeps one registry per shard; this produces
        the database-wide view: numeric keys are summed, ``per_view``
        entries merge by view name (span counts summed, the most recent
        last-append latency kept — i.e. the max, since shards of one
        batch finish within the same append).
        """
        merged: Dict[str, Any] = {}
        per_view: Dict[str, Dict[str, float]] = {}
        for stats in many:
            for key, value in stats.items():
                if key == "per_view":
                    for name, values in value.items():
                        into = per_view.setdefault(
                            name, {"spans": 0, "last_append_seconds": 0.0}
                        )
                        into["spans"] += values.get("spans", 0)
                        into["last_append_seconds"] = max(
                            into["last_append_seconds"],
                            values.get("last_append_seconds", 0.0),
                        )
                else:
                    merged[key] = merged.get(key, 0) + value
        if per_view:
            merged["per_view"] = per_view
        return merged

    @property
    def stats(self) -> Dict[str, Any]:
        """Routing statistics for every event seen by this registry.

        Keys: ``events``, ``candidate_views`` (views over the touched
        chronicles), ``views_examined`` (the candidates the dispatch
        index made the router look at), ``maintained_views``,
        ``prefilter_hits`` / ``prefilter_misses`` (candidates skipped /
        not skipped by the Section 5.2 prefilter; with it on they sum to
        ``candidate_views``).  The same numbers are surfaced as metrics
        (``view_prefilter_total{outcome}``, ``view_maintained_total``)
        when observability is installed.

        While observability is installed, a ``per_view``
        key is added: ``{view: {"spans": n, "last_append_seconds": s}}``
        from that view's ``maintain`` spans — absent entirely when no
        span was ever observed, so uninstrumented runs see the original
        flat shape.
        """
        out: Dict[str, Any] = dict(self._stats)
        if self._per_view:
            out["per_view"] = {
                name: dict(values) for name, values in self._per_view.items()
            }
        return out

    # -- compilation --------------------------------------------------------------------

    def ensure_compiled(self) -> None:
        """(Re)compile every view's plan if registrations changed.

        Called automatically on the first event after a registration
        change; exposed so benchmarks can pay compilation up front.
        """
        if not self._plans_stale:
            return
        for registered in self._views.values():
            registered.plan = self._compiler.compile(registered.root)
        self._plans_stale = False

    def interned_expression(self, name: str) -> Node:
        """The interned (shared-subtree) expression of a registered view."""
        registered = self._views.get(name)
        if registered is None:
            raise ViewRegistrationError(f"no view named {name!r}")
        return registered.root

    # -- routing -----------------------------------------------------------------------

    def attach(self, group: ChronicleGroup) -> None:
        """Subscribe the registry to a group's append events."""
        group.subscribe(self.on_event)

    def on_event(self, group: ChronicleGroup, event: Mapping[str, Tuple[Row, ...]]) -> int:
        """Route one append event; returns how many views were maintained.

        Periodic view sets attached to the group route themselves.

        With observability installed, candidate filtering runs inside a
        ``prefilter`` span and each view's maintenance inside its own
        ``maintain`` span (see :mod:`repro.obs`); when it is not, the
        only added cost is one module-attribute load per event.
        """
        obs = obs_runtime.ACTIVE
        tracer = obs.tracer if obs is not None and obs.trace else None
        stats = self._stats
        stats["events"] += 1
        if self._plans_stale:
            self.ensure_compiled()
        by_chronicle = self._by_chronicle
        touched = [
            (by_chronicle[name], rows) for name, rows in event.items() if name in by_chronicle
        ]
        if len(touched) == 1:
            candidates = touched[0][0].views
        else:
            merged: Dict[int, RegisteredView] = {}
            for dispatch, _ in touched:
                merged.update(dispatch.views)
            candidates = dict(sorted(merged.items()))  # registration order
        count = len(candidates)
        if not count:
            return 0
        stats["candidate_views"] += count
        if self.prefilter:
            span = (
                tracer.start("prefilter", candidates=count)
                if tracer is not None
                else None
            )
            try:
                hit: Dict[int, RegisteredView] = {}
                examined: Set[int] = set()
                for dispatch, rows in touched:
                    dispatch.route(rows, hit, examined)
                survivors = [hit[rank] for rank in sorted(hit)]
                hits = count - len(survivors)
                stats["views_examined"] += len(examined)
                stats["prefilter_hits"] += hits
                stats["prefilter_misses"] += len(survivors)
                if obs is not None:
                    if hits:
                        obs.metrics.inc("view_prefilter_total", hits, outcome="hit")
                    if survivors:
                        obs.metrics.inc(
                            "view_prefilter_total", len(survivors), outcome="miss"
                        )
                if span is not None:
                    span.attrs["skipped"] = hits
                    span.attrs["examined"] = len(examined)
            finally:
                if span is not None:
                    tracer.finish(span)
            if not survivors:
                return 0
        else:
            stats["views_examined"] += count
            survivors = list(candidates.values())
        deltas = event_deltas(group, event)
        # One delta cache per event: interned nodes shared between plans
        # are computed once.
        cache: Dict[int, Delta] = {}
        for registered in survivors:
            span = (
                tracer.start("maintain", view=registered.view.name, engine="compiled")
                if tracer is not None
                else None
            )
            try:
                with maintenance_guard():
                    delta = registered.plan(deltas, cache)
                folded = registered.view.apply_delta(delta)
                if span is not None:
                    span.attrs["rows"] = folded
            finally:
                if span is not None:
                    tracer.finish(span)
            if span is not None:
                per_view = self._per_view.get(registered.view.name)
                if per_view is None:
                    per_view = self._per_view[registered.view.name] = {
                        "spans": 0,
                        "last_append_seconds": 0.0,
                    }
                per_view["spans"] += 1
                per_view["last_append_seconds"] = span.duration
        maintained = len(survivors)
        stats["maintained_views"] += maintained
        return maintained
