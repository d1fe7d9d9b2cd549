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

The dispatch index also computes deltas.  For a view whose χ is a
selection chain over one chronicle scan (σ…σ(scan C)), its filed
conjunction *is* the chain, so the rows an event's entry accepts are the
view's σ-delta (σ is linear: a selection's delta is the selection of the
base delta).  Such a view is *seeded*: routing collects the rows its
entry accepts, the registry puts them into the per-event delta cache
under the view's interned root, and the compiled plan reads them there
(:class:`~repro.algebra.plan.PlanCompiler` compiles a seeded root to one
step that reads its seed).  Each row is tested once per filed entry, and
routing runs inside the event's no-access extent, since its tests are
now the maintenance path's selection step.  A registry with the
prefilter off seeds nothing and compiles full plans.

The registry is the one maintainer.  Periodic view sets are filed and
maintained like views, so only the views *active* for the current
interval are maintained (third bullet of Section 5.2); a set is never
seeded, since it splits rows by interval before its own plan runs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

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
from ..sca.view import PersistentView
from .periodic import PeriodicViewSet


def event_deltas(group: ChronicleGroup, event: Mapping[str, Tuple[Row, ...]]) -> Dict[str, Delta]:
    """Convert one append event into per-chronicle deltas.

    An event's rows per chronicle are already a set: the group
    deduplicated each admitted batch, and a coalesced window joins
    batches with different sequence numbers.
    """
    deltas: Dict[str, Delta] = {}
    for name, rows in event.items():
        if rows:
            deltas[name] = Delta.unchecked(group[name].schema, rows)
    return deltas


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
    return _prefilter_walk(expression)[0]


def _prefilter_walk(expression: Node) -> Tuple[Dict[str, List[Predicate]], bool]:
    """:func:`scan_prefilters`, and whether *expression* is seeded.

    Seeded means the whole expression is a selection chain over one scan
    (σ…σ(scan C), at least one σ): its one filed conjunction is the
    chain, so the rows the dispatch index accepts are its delta.
    """
    filters: Dict[str, List[Predicate]] = {}
    unfiltered: set = set()
    seeded = False

    def descend(node: Node, pending: Tuple[Predicate, ...], chain: bool) -> None:
        nonlocal seeded
        if isinstance(node, Select):
            descend(node.child, pending + (node.predicate,), chain)
            return
        if isinstance(node, ChronicleScan):
            name = node.chronicle.name
            filters.setdefault(name, [])
            if pending and name not in unfiltered:
                filters[name].append(conjunction(list(pending)))
                seeded = chain
            else:
                # An unfiltered scan accepts everything: no prefilter for
                # this chronicle, regardless of other (filtered) scans.
                unfiltered.add(name)
                filters[name] = []
            return
        for child in node.children:
            descend(child, (), False)

    descend(expression, (), True)
    return filters, seeded


class RegisteredView:
    """Registry bookkeeping for one persistent view or periodic view set.

    *rank* is the registration order; survivors of an event are
    maintained by ascending rank.  *root* is a view's interned
    expression; *plan* its :class:`~repro.algebra.plan.CompiledPlan`,
    ``None`` until the registry next compiles, and always for a set.
    *seeded* says whether the dispatch index computes the root's delta
    (see the module docstring).
    """

    __slots__ = ("view", "rank", "prefilters", "seeded", "root", "plan", "partition")

    def __init__(
        self, view: PersistentView | PeriodicViewSet, rank: int, root: Optional[Node] = None
    ) -> None:
        self.view = view
        self.rank = rank
        self.prefilters, seeded = _prefilter_walk(view.summary.expression)
        self.seeded = seeded and root is not None
        self.root = root
        self.plan: Optional[CompiledPlan] = None
        #: Partition declaration (PartitionSpec or UNPARTITIONABLE) —
        #: the sharded engine routes records by it.
        self.partition = infer_partition(view.summary)


#: One filed scan conjunction: (registration rank, its compiled test over a
#: raw value tuple or ``None`` to accept every row, whether the view is
#: seeded).
DispatchEntry = Tuple[int, Optional[ValuesPredicate], bool]

#: What routing found, by rank: a seeded view's accepted rows, in event
#: order, or ``None`` for any other affected view.
Hits = Dict[int, Optional[List[Row]]]


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
    with no test.  A seeded view files one entry, and routing tests every
    row against it, keeping the rows it accepts.
    """

    __slots__ = ("views", "always", "tables")

    def __init__(self) -> None:
        self.views: Dict[int, RegisteredView] = {}
        self.always: List[DispatchEntry] = []
        self.tables: Dict[int, Dict[Any, List[DispatchEntry]]] = {}

    def add(self, registered: RegisteredView, predicates: List[Predicate], schema: Schema) -> None:
        """File *registered* and its scan conjunctions over this chronicle."""
        rank, seeded = registered.rank, registered.seeded
        self.views[rank] = registered
        if not predicates:  # some scan of the chronicle is unfiltered
            self.always.append((rank, None, False))
            return
        for predicate in predicates:
            key, residual = compile_prefilter(predicate, schema)
            if key is None:
                self.always.append((rank, residual, seeded))
            else:
                position, constant = key
                self.tables.setdefault(position, {}).setdefault(constant, []).append(
                    (rank, residual, seeded)
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

    def route(self, rows: Tuple[Row, ...], hit: Hits, examined: Set[int]) -> None:
        """Add the views some row of *rows* affects to *hit* (by rank).

        A seeded view's entry is tested against every row, and *hit*
        keeps the rows it accepts; any other view is done with at its
        first accepting row.  *examined* collects the rank of every view
        looked at.  Row values come from typed domains (numbers, strings,
        booleans, NULL), all hashable; NULL finds no bucket because no
        constant is NULL.
        """
        # A rank already hit was examined when it was hit, so adding every
        # rank looked at counts each examined view once.
        for rank, test, seeded in self.always:
            examined.add(rank)
            if seeded:
                accepted = [row for row in rows if test(row.values)]
                if accepted:
                    hit[rank] = accepted
            elif rank not in hit and (test is None or any(test(row.values) for row in rows)):
                hit[rank] = None
        tables = self.tables
        if not tables:
            return
        for row in rows:
            values = row.values
            for position, table in tables.items():
                bucket = table.get(values[position])
                if bucket is None:
                    continue
                for rank, test, seeded in bucket:
                    examined.add(rank)
                    if seeded:
                        if test is None or test(values):
                            accepted = hit.get(rank)
                            if accepted is None:
                                hit[rank] = [row]
                            else:
                                accepted.append(row)
                    elif rank not in hit and (test is None or test(values)):
                        hit[rank] = None


class ViewRegistry:
    """Owns every persistent view and periodic view set of a database,
    routes appends, and is the only code that maintains them.

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
        units and :func:`attach_view` run that way; benchmark E9
        measures the difference).
    """

    def __init__(self, prefilter: bool = True) -> None:
        self.prefilter = prefilter
        self._views: Dict[str, RegisteredView] = {}
        self._periodic: Dict[str, RegisteredView] = {}
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
        self._compiler = PlanCompiler()
        self._plans_stale = False

    # -- registration -----------------------------------------------------------------

    def register(self, view: PersistentView) -> PersistentView:
        """Register a persistent view for maintenance."""
        if view.name in self._views or view.name in self._periodic:
            raise ViewRegistrationError(f"view name {view.name!r} already registered")
        root = self._compiler.add_root(view.expression)
        self._views[view.name] = self._file(RegisteredView(view, self._next_rank, root))
        # Sharing boundaries may have moved: recompile lazily, off the
        # append path.
        self._plans_stale = True
        return view

    def register_periodic(self, view_set: PeriodicViewSet, group: ChronicleGroup) -> PeriodicViewSet:
        """Register a periodic view set; with no ``chronon_of`` it places
        rows by *group*'s chronon of their sequence number (§5.1)."""
        if view_set.name in self._views or view_set.name in self._periodic:
            raise ViewRegistrationError(f"view name {view_set.name!r} already registered")
        if view_set.chronon_of is None:
            chronons = group.chronons
            view_set.chronon_of = lambda row: chronons.chronon(row.sequence_number)
        self._periodic[view_set.name] = self._file(RegisteredView(view_set, self._next_rank))
        return view_set

    def _file(self, registered: RegisteredView) -> RegisteredView:
        """File *registered* in the dispatch index; it took the next rank."""
        self._next_rank += 1
        schemas = {c.name: c.schema for c in registered.view.summary.expression.chronicles()}
        for chronicle_name, predicates in registered.prefilters.items():
            dispatch = self._by_chronicle.get(chronicle_name)
            if dispatch is None:
                dispatch = self._by_chronicle[chronicle_name] = ChronicleDispatch()
            dispatch.add(registered, predicates, schemas[chronicle_name])
        return registered

    def unregister(self, name: str) -> None:
        """Drop a registered view or periodic view set."""
        registered = self.registered(name)
        if self._periodic.pop(name, None) is None:
            del self._views[name]
            self._compiler.remove_root(registered.root)
            self._plans_stale = True
        obs = obs_runtime.ACTIVE
        if obs is not None:
            # Restarts the view's per-view stats on the handle.
            with obs.tracer.span("drop_view", view=name):
                pass
        for chronicle_name in registered.prefilters:
            self._by_chronicle[chronicle_name].discard(registered.rank)

    # -- lookup ------------------------------------------------------------------------

    def registered(self, name: str) -> RegisteredView:
        """The bookkeeping of the view or periodic view set *name*."""
        registered = self._views.get(name) or self._periodic.get(name)
        if registered is None:
            raise ViewRegistrationError(f"no view named {name!r}")
        return registered

    def view(self, name: str) -> PersistentView:
        try:
            return self._views[name].view
        except KeyError:
            raise ViewRegistrationError(f"no view named {name!r}") from None

    def periodic(self, name: str) -> PeriodicViewSet:
        try:
            return self._periodic[name].view
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
        the database-wide view by summing every key.
        """
        merged: Dict[str, Any] = {}
        for stats in many:
            for key, value in stats.items():
                merged[key] = merged.get(key, 0) + value
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
        when observability is installed; per-view span counts and
        latencies are the observability handle's
        (:meth:`~repro.obs.core.Observability.view_stats`).
        """
        return dict(self._stats)

    # -- compilation --------------------------------------------------------------------

    def ensure_compiled(self) -> None:
        """(Re)compile every view's plan if registrations changed.

        Called automatically on the first event after a registration
        change; exposed so benchmarks can pay compilation up front.
        """
        if not self._plans_stale:
            return
        compiler = self._compiler
        compiler.seeded = (
            {id(r.root) for r in self._views.values() if r.seeded} if self.prefilter else set()
        )
        for registered in self._views.values():
            registered.plan = compiler.compile(registered.root)
        self._plans_stale = False

    def interned_expression(self, name: str) -> Optional[Node]:
        """The interned (shared-subtree) expression of a view; None for a set."""
        return self.registered(name).root

    # -- routing -----------------------------------------------------------------------

    def attach(self, group: ChronicleGroup) -> None:
        """Subscribe the registry to a group's append events."""
        group.subscribe(self.on_event)

    def on_event(self, group: ChronicleGroup, event: Mapping[str, Tuple[Row, ...]]) -> int:
        """Route one append event; returns how many views were maintained.

        Views and periodic sets are maintained alike, in one no-access
        extent; a set the prefilter skips still places the event's rows
        in its intervals (:meth:`PeriodicViewSet.place`), and every
        set's expiry (its ``on_expire``) runs after the extent closes.

        With observability installed, candidate filtering runs inside a
        ``prefilter`` span and each view's or set's maintenance inside
        its own ``maintain`` span (see :mod:`repro.obs`); when it is not,
        the only added cost is one module-attribute load per event.
        """
        obs = obs_runtime.ACTIVE
        tracer = obs.tracer if obs is not None else None
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
        periodic = self._periodic
        sets = [r for r in periodic.values() if r.rank in candidates] if periodic else ()
        # One no-access extent per event, around routing (whose tests are
        # the seeded views' selection step) and every survivor's plan and
        # fold: apply_delta folds inside it instead of opening its own.
        with maintenance_guard():
            if self.prefilter:
                span = (
                    tracer.start("prefilter", candidates=count)
                    if tracer is not None
                    else None
                )
                try:
                    hit: Hits = {}
                    examined: Set[int] = set()
                    for dispatch, rows in touched:
                        dispatch.route(rows, hit, examined)
                    survivors = [candidates[rank] for rank in sorted(hit)]
                    hits = count - len(survivors)
                    stats["views_examined"] += len(examined)
                    stats["prefilter_hits"] += hits
                    stats["prefilter_misses"] += len(survivors)
                    if span is not None:
                        span.attrs["skipped"] = hits
                        span.attrs["examined"] = len(examined)
                finally:
                    if span is not None:
                        tracer.finish(span)
                if not survivors and not sets:
                    return 0
                # One delta cache per event: interned nodes shared between
                # plans are computed once, and seeded roots are put there.
                cache: Dict[int, Delta] = {}
                for rank, accepted in hit.items():
                    if accepted is not None:
                        root = candidates[rank].root
                        cache[id(root)] = Delta.unchecked(root.schema, accepted)
            else:
                stats["views_examined"] += count
                survivors = list(candidates.values())
                cache = {}
            deltas = event_deltas(group, event)
            for registered in sets:
                if self.prefilter and registered.rank not in hit:
                    # Nothing to fold, but rows still move the clock and open intervals.
                    registered.view.place(deltas)
            for registered in survivors:
                span = (
                    tracer.start("maintain", view=registered.view.name, engine="compiled")
                    if tracer is not None
                    else None
                )
                try:
                    plan = registered.plan
                    if plan is None:  # a periodic set: its own per-interval plan
                        folded = registered.view.maintain(deltas)
                    else:
                        folded = registered.view.apply_delta(plan(deltas, cache))
                    if span is not None:
                        span.attrs["rows"] = folded
                finally:
                    if span is not None:
                        tracer.finish(span)
        for registered in sets:
            registered.view.expire_stale()
        maintained = len(survivors)
        stats["maintained_views"] += maintained
        return maintained


def attach_view(view: PersistentView, group: ChronicleGroup) -> Callable[..., int]:
    """Maintain a single view, by a one-view registry with the prefilter
    off, on *group*'s append events; returns the listener (to
    :meth:`~repro.core.group.ChronicleGroup.unsubscribe`)."""
    registry = ViewRegistry(prefilter=False)
    registry.register(view)
    registry.attach(group)
    return registry.on_event
