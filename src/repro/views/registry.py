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
now the maintenance path's selection step.  Seeding stays sound on a
coalesced multi-batch event (a shard unit's window): σ of the window's
union is the union of each batch's σ-delta.

Inside a bucket (and on the *always* list), an entry whose residual is
one range atom ``attr <|<=|>|>= const`` is not tested: it sits in a list
of constants sorted per (attribute, operator), and one ``bisect`` per
row finds the accepting prefix or suffix (Abo-Khamis et al.: index an
update by the shape of what it can touch).

Maintenance is *plan, then fold*.  Every survivor's χ-delta is
collected first — a seeded view's is the rows routing accepted, with no
``Delta`` and no plan call; any other view runs its compiled plan — and
only then does anything fold, so a plan that raises leaves every view
as it was.  Views that share a chronicle set and a summary-key lineage
(as :func:`~repro.algebra.plan.infer_partition` computes it) form one
:class:`~repro.sca.view.KeyClass`, and the event's rows for all its
members fold in one :meth:`~repro.sca.view.PersistentView.apply_delta`
call: each distinct key is located once per class.  With observability
installed each survivor keeps its own ``maintain`` span around its plan
and its fold, so spans, per-view metrics and certificates keep their
meaning; there the plans and folds of different views interleave.

The registry is the one maintainer.  Periodic view sets are filed and
maintained like views, so only the views *active* for the current
interval are maintained (third bullet of Section 5.2); a set is never
seeded, since it splits rows by interval before its own plan runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..algebra.ast import ChronicleScan, Node, Select
from ..algebra.plan import (
    CompiledPlan,
    PlanCompiler,
    ValuesPredicate,
    compile_prefilter,
    infer_partition,
    range_threshold,
)
from ..core.chronicle import maintenance_guard
from ..core.delta import Delta
from ..core.group import ChronicleGroup
from ..errors import ViewRegistrationError
from ..obs import runtime as obs_runtime
from ..relational.predicate import Predicate, conjunction
from ..relational.schema import Schema
from ..relational.tuples import Row
from ..sca.view import FoldBatch, KeyClass, PersistentView
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
    (see the module docstring).  *key_class* is the view's :class:`~repro.sca.view.KeyClass` in this
    registry, ``None`` for a class of one.
    """

    __slots__ = (
        "view",
        "rank",
        "prefilters",
        "seeded",
        "root",
        "plan",
        "partition",
        "key_class",
    )

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
        self.key_class: Optional[KeyClass] = None

    def class_key(self) -> Optional[Tuple[Any, ...]]:
        """What views of one key class share: the chronicle set and the
        summary-key lineage; ``None`` when the view folds on its own.

        A periodic set, a view with no lineage (a global aggregate, a
        key computed from aggregates or relation attributes) and a view
        :meth:`KeyClass.admits` refuses each fold alone.
        """
        if self.root is None or not self.partition or not KeyClass.admits(self.view):
            return None
        return self.partition.canonical()


#: One tested scan conjunction: (registration rank, its compiled test over
#: a raw value tuple or ``None`` to accept every row, whether the view is
#: seeded).
DispatchEntry = Tuple[int, Optional[ValuesPredicate], bool]

#: What routing found, by rank: a seeded view's accepted rows, in event
#: order, or ``None`` for any other affected view.
Hits = Dict[int, Optional[List[Row]]]

#: For each range operator: the bisect that finds the first accepting
#: constant's boundary, and whether the accepting constants are the
#: suffix (``x < c`` holds for every ``c`` past ``x``) or the prefix.
_RANGE_CUTS = {
    "<": (bisect_right, True),
    "<=": (bisect_left, True),
    ">": (bisect_left, False),
    ">=": (bisect_right, False),
}


class Bucket:
    """The scan conjunctions filed under one dispatch key, or on the
    *always* list.

    *filed* is every entry in filing order, ``(rank, test, seeded,
    threshold)``.  Entries with a range threshold are answered by
    *ranges*, one ``(position, bisect, constants, entries, suffix)`` per
    (attribute, operator) with the constants sorted and *entries* the
    matching ``(rank, seeded)`` pairs; the rest are tested one by one
    from *tests*.  *ranks* is every rank filed here (what routing counts
    as examined when a row reaches the bucket).
    """

    __slots__ = ("filed", "tests", "ranges", "ranks")

    def __init__(self) -> None:
        self.filed: List[Tuple[int, Optional[ValuesPredicate], bool, Any]] = []
        self.tests: List[DispatchEntry] = []
        self.ranges: List[Tuple[int, Callable[..., int], List[Any], List[Any], bool]] = []
        self.ranks: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.filed)

    def add(self, rank: int, test: Optional[ValuesPredicate], seeded: bool, threshold: Any) -> None:
        self.filed.append((rank, test, seeded, threshold))
        self._rebuild()

    def discard(self, rank: int) -> None:
        self.filed = [entry for entry in self.filed if entry[0] != rank]
        self._rebuild()

    def _rebuild(self) -> None:
        self.tests = [
            (rank, test, seeded) for rank, test, seeded, threshold in self.filed if threshold is None
        ]
        lists: Dict[Tuple[int, str], List[Tuple[Any, int, bool]]] = {}
        for rank, _, seeded, threshold in self.filed:
            if threshold is not None:
                position, op, constant = threshold
                lists.setdefault((position, op), []).append((constant, rank, seeded))
        self.ranges = []
        for (position, op), filed in lists.items():
            # A stable sort keeps filing order among equal constants.
            filed.sort(key=lambda item: item[0])
            cut, suffix = _RANGE_CUTS[op]
            self.ranges.append(
                (
                    position,
                    cut,
                    [constant for constant, _, _ in filed],
                    [(rank, seeded) for _, rank, seeded in filed],
                    suffix,
                )
            )
        self.ranks = tuple(entry[0] for entry in self.filed)

    def route(self, rows: Tuple[Row, ...], hit: Hits) -> None:
        """Add what *rows* hit among this bucket's entries to *hit*.

        A seeded entry keeps the rows it accepts, in event order; any
        other entry is done with at its first accepting row.
        """
        for rank, test, seeded in self.tests:
            if seeded:
                accepted = [row for row in rows if test is None or test(row.values)]
                if accepted:
                    previous = hit.get(rank)
                    if previous is None:
                        hit[rank] = accepted
                    else:
                        previous.extend(accepted)
            elif rank not in hit and (test is None or any(test(row.values) for row in rows)):
                hit[rank] = None
        ranges = self.ranges
        if not ranges:
            return
        for row in rows:
            values = row.values
            for position, cut, constants, entries, suffix in ranges:
                value = values[position]
                if value is None or value != value:  # NULL and NaN pass no comparison
                    continue
                boundary = cut(constants, value)
                for rank, seeded in entries[boundary:] if suffix else entries[:boundary]:
                    if not seeded:
                        if rank not in hit:
                            hit[rank] = None
                        continue
                    accepted = hit.get(rank)
                    if accepted is None:
                        hit[rank] = [row]
                    else:
                        accepted.append(row)


class ChronicleDispatch:
    """Both indexes of one chronicle: its dependent views and their filters.

    *views* is the dependency index (rank → view, so in registration
    order).  Every scan conjunction of every dependent view is filed
    exactly once in the predicate dispatch index: in the bucket
    ``tables[position][constant]`` when it contains the atom
    ``attribute = constant`` (the entry then tests only the residual
    conjuncts), in the *always* bucket otherwise.  A view scanning the
    chronicle twice files two entries and is affected when either
    accepts a row; a view with an unfiltered scan files one always-entry
    with no test.  A seeded view files one entry, and routing tests every
    row against it, keeping the rows it accepts.
    """

    __slots__ = ("views", "always", "tables")

    def __init__(self) -> None:
        self.views: Dict[int, RegisteredView] = {}
        self.always = Bucket()
        self.tables: Dict[int, Dict[Any, Bucket]] = {}

    def add(self, registered: RegisteredView, predicates: List[Predicate], schema: Schema) -> None:
        """File *registered* and its scan conjunctions over this chronicle."""
        rank, seeded = registered.rank, registered.seeded
        self.views[rank] = registered
        if not predicates:  # some scan of the chronicle is unfiltered
            self.always.add(rank, None, False, None)
            return
        for predicate in predicates:
            key, residual = compile_prefilter(predicate, schema)
            threshold = range_threshold(predicate, schema)
            if key is None:
                bucket = self.always
            else:
                position, constant = key
                bucket = self.tables.setdefault(position, {}).get(constant)
                if bucket is None:
                    bucket = self.tables[position][constant] = Bucket()
            bucket.add(rank, residual, seeded, threshold)

    def discard(self, rank: int) -> None:
        """Remove the view registered as *rank* and every entry it filed."""
        del self.views[rank]
        self.always.discard(rank)
        for position, table in list(self.tables.items()):
            for constant, bucket in list(table.items()):
                bucket.discard(rank)
                if not bucket:
                    del table[constant]
            if not table:
                del self.tables[position]

    def route(self, rows: Tuple[Row, ...], hit: Hits, examined: Set[int]) -> None:
        """Add the views some row of *rows* affects to *hit* (by rank).

        A seeded view's entry is tested against every row, and *hit*
        keeps the rows it accepts; any other view is done with at its
        first accepting row.  *examined* collects the rank of every view
        filed in a bucket some row reached.  Row values come from typed
        domains (numbers, strings, booleans, NULL), all hashable; NULL
        finds no bucket because no constant is NULL.
        """
        always = self.always
        if always:
            examined.update(always.ranks)
            always.route(rows, hit)
        tables = self.tables
        if not tables:
            return
        for row in rows:
            values = row.values
            for position, table in tables.items():
                bucket = table.get(values[position])
                if bucket is not None:
                    examined.update(bucket.ranks)
                    bucket.route((row,), hit)


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

    Every event is routed through the predicate dispatch index, and only
    the views it returns are maintained (benchmark E9 measures that
    against maintaining every candidate).  Views of one key class are
    folded together (see the module docstring).
    """

    def __init__(self) -> None:
        self._views: Dict[str, RegisteredView] = {}
        self._periodic: Dict[str, RegisteredView] = {}
        self._by_chronicle: Dict[str, ChronicleDispatch] = {}
        #: class key → its members, in registration order.
        self._classes: Dict[Tuple[Any, ...], List[RegisteredView]] = {}
        #: Ranks of the seeded views whose delta another plan reads.
        self._shared_seeds: Set[int] = set()
        self._next_rank = 0
        self._stats = {
            "events": 0,
            "candidate_views": 0,
            # Candidates the router looked at: the views a dispatch lookup
            # returned plus the always list.
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
        registered = self._file(RegisteredView(view, self._next_rank, root))
        self._views[view.name] = registered
        key = registered.class_key()
        if key is not None:
            members = self._classes.setdefault(key, [])
            members.append(registered)
            self._reclass(members)
        # Sharing boundaries may have moved: recompile lazily, off the
        # append path.
        self._plans_stale = True
        return view

    @staticmethod
    def _reclass(members: List[RegisteredView]) -> None:
        """Rebuild one key class after a member joined or left.

        The class map is rebuilt from the members' stores before its
        next fold; a class of one has none, and its view folds into its
        own store.
        """
        for registered in members:
            if registered.key_class is not None:
                registered.key_class.dissolve()
                registered.key_class = None
        if len(members) > 1:
            key_class = KeyClass([registered.view for registered in members])
            for registered in members:
                registered.key_class = key_class

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
            key = registered.class_key()
            if key is not None:
                members = self._classes[key]
                members.remove(registered)
                if registered.key_class is not None:
                    registered.key_class.dissolve()
                    registered.key_class = None
                if members:
                    self._reclass(members)
                else:
                    del self._classes[key]
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
        not skipped by the Section 5.2 prefilter; they sum to
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
        compiler.seeded = {id(r.root) for r in self._views.values() if r.seeded}
        for registered in self._views.values():
            registered.plan = compiler.compile(registered.root)
        self._shared_seeds = {
            r.rank for r in self._views.values() if r.seeded and compiler.is_shared(r.root)
        }
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
            span = tracer.start("prefilter", candidates=count) if tracer is not None else None
            try:
                hit: Hits = {}
                examined: Set[int] = set()
                for dispatch, rows in touched:
                    dispatch.route(rows, hit, examined)
                maintained = len(hit)
                hits = count - maintained
                stats["views_examined"] += len(examined)
                stats["prefilter_hits"] += hits
                stats["prefilter_misses"] += maintained
                if span is not None:
                    span.attrs["skipped"] = hits
                    span.attrs["examined"] = len(examined)
            finally:
                if span is not None:
                    tracer.finish(span)
            if not maintained and not sets:
                return 0
            # One delta cache per event: interned nodes shared between
            # plans are computed once, and a seeded root another plan
            # reads is put there.
            cache: Dict[int, Delta] = {}
            seeds = hit if tracer is not None else self._shared_seeds
            if seeds:
                for rank in seeds:
                    accepted = hit.get(rank)
                    if accepted is not None:
                        root = candidates[rank].root
                        cache[id(root)] = Delta.unchecked(root.schema, accepted)
            deltas = event_deltas(group, event) if sets or tracer is not None else None
            if tracer is not None:
                self._maintain_observed(
                    tracer, hit, [candidates[rank] for rank in sorted(hit)], sets, deltas, cache
                )
            else:
                # Plan, then fold: every survivor's delta is collected
                # before any view or set folds, one fold batch per key class.
                batches: Dict[Any, FoldBatch] = {}
                for rank, rows in sorted(hit.items()):
                    registered = candidates[rank]
                    if rows is None:
                        plan = registered.plan
                        if plan is None:  # a periodic set: its own per-interval plan
                            continue
                        if deltas is None:
                            deltas = event_deltas(group, event)
                        rows = plan(deltas, cache).rows
                    fold_key = registered.key_class or registered
                    batch = batches.get(fold_key)
                    if batch is None:
                        batches[fold_key] = [(registered.view, rows)]
                    else:
                        batch.append((registered.view, rows))
                for registered in sets:
                    if registered.rank in hit:
                        registered.view.maintain(deltas)
                    else:
                        # Nothing to fold, but rows still move the clock and open intervals.
                        registered.view.place(deltas)
                for batch in batches.values():
                    batch[0][0].apply_delta(batch)
        for registered in sets:
            registered.view.expire_stale()
        stats["maintained_views"] += maintained
        return maintained

    @staticmethod
    def _maintain_observed(
        tracer: Any,
        hit: Hits,
        survivors: List[RegisteredView],
        sets: Iterable[RegisteredView],
        deltas: Dict[str, Delta],
        cache: Dict[int, Delta],
    ) -> None:
        """Each survivor's plan and fold in its own ``maintain`` span,
        by rank: what the per-view metrics, the cost ledger and the
        conformance certificates read."""
        for registered in sets:
            if registered.rank not in hit:
                registered.view.place(deltas)
        for registered in survivors:
            span = tracer.start("maintain", view=registered.view.name, engine="compiled")
            try:
                plan = registered.plan
                if plan is None:  # a periodic set: its own per-interval plan
                    folded = registered.view.maintain(deltas)
                else:
                    folded = registered.view.apply_delta(plan(deltas, cache))
                span.attrs["rows"] = folded
            finally:
                tracer.finish(span)


def attach_view(view: PersistentView, group: ChronicleGroup) -> Callable[..., int]:
    """Maintain a single view, by a one-view registry, on *group*'s
    append events; returns the listener (to
    :meth:`~repro.core.group.ChronicleGroup.unsubscribe`)."""
    registry = ViewRegistry()
    registry.register(view)
    registry.attach(group)
    return registry.on_event
