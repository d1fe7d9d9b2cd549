"""Persistent views: materialized SCA summaries, maintained incrementally.

A :class:`PersistentView` owns

* the chronicle-algebra expression χ and its summarization
  (:class:`~repro.sca.summarize.Summary`);
* one state store keyed by the summary key, whose entry per key holds
  the key's aggregate accumulators (or its multiplicity) and its
  visible row — the engine's counted hash map by default, so the locate
  step of Theorem 4.4 is one expected-O(1) hash probe (a B+-tree passed
  as ``state_index`` gives the theorem's O(log |V|));
* its :class:`~repro.algebra.classify.Classification` (language fragment
  and IM class).

The maintenance path (:meth:`apply_delta`, fed by a compiled plan of
:mod:`repro.algebra.plan`) runs under the chronicle no-access guard:
computing the χ-delta and folding it into the view can never read a
chronicle store, which is the mechanical content of Theorems 4.2/4.4.

The extent contract: the registry that maintains an event (serial, or
a shard unit's) opens one no-access extent around the plans and folds of
every view and periodic set it reaches, and :meth:`apply_delta` folds
inside that extent, opening one of its own only when called outside
any.  The fold itself is compiled once per view, at construction
(:meth:`_compile_fold`).

Views that share a chronicle set and a summary-key lineage form a
:class:`KeyClass` in the registry that maintains them.  Each member
keeps its own store; the class adds one map from a key to every
member's entry at that key, so an event reaching several members
locates each distinct key once and steps every member's entry in place
(:func:`compile_fold`).  A view alone is a class of one: it has no
class map and folds into its own store.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..algebra.ast import Node
from ..algebra.classify import Classification, IMClass, Language, classify
from ..algebra.evaluate import evaluate
from ..complexity.counters import GLOBAL_COUNTERS
from ..core.chronicle import in_maintenance, maintenance_guard
from ..core.delta import Delta
from ..errors import ViewError
from ..relational.algebra import Table, group_by as ra_group_by, project as ra_project
from ..relational.tuples import Row
from ..storage.hash_index import HashMap
from .summarize import GroupBySummary, ProjectSummary, Summary


class PersistentView:
    """A materialized, incrementally maintained SCA view.

    Parameters
    ----------
    name:
        View name.
    summary:
        The summarization over a chronicle-algebra expression.
    require_language:
        Optionally insist the expression lies within a fragment
        (e.g. ``Language.CA_JOIN`` for guaranteed IM-log(R) maintenance);
        registration fails otherwise.
    """

    def __init__(
        self,
        name: str,
        summary: Summary,
        require_language: Optional[Language] = None,
        state_index: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.summary = summary
        self.expression: Node = summary.expression
        self.classification: Classification = classify(self.expression)
        if self.classification.language is Language.NOT_CA:
            raise ViewError(
                f"view {name!r} uses operators outside chronicle algebra; "
                f"its maintenance would need chronicle access (Theorem 4.3)"
            )
        if require_language is not None and not (
            self.classification.language <= require_language
        ):
            raise ViewError(
                f"view {name!r} is in {self.classification.language.value}, "
                f"outside the required fragment {require_language.value}"
            )
        self._grouped = isinstance(summary, GroupBySummary)
        # The view's whole state: summary key → one mutable entry,
        # ``[acc_1, …, acc_|AL|, row]`` for a grouping summary and
        # ``[count, row]`` for a projection, where ``row`` is the key's
        # visible row.  ``get`` hands the entry itself back, so a fold
        # locates a key once, steps the entry in place and sets its row.
        # The default store keeps keys in the order first seen;
        # *state_index* substitutes any store with
        # ``get/insert/items/clear/__len__`` (a B+-tree for Theorem 4.4's
        # O(log |V|) locate, as the A1 ablation and the E4 sweep build it).
        self._state = state_index if state_index is not None else HashMap()
        # key → entry of every key folded since the last take_touched();
        # None (the default) records nothing.
        self._touched: Optional[Dict[Tuple[Any, ...], List[Any]]] = None
        self._maintenance_count = 0
        #: The key class folding this view with others (set by the
        #: registry), and the view's slot in it; None for a class of one.
        self._key_class: Optional[KeyClass] = None
        self._slot = 0
        self._fold = self._compile_fold()
        self._show_global_group()

    # -- introspection ---------------------------------------------------------------

    @property
    def schema(self):
        """The view's output schema (no sequencing attribute)."""
        return self.summary.output_schema

    @property
    def im_class(self) -> IMClass:
        """The view's incremental-maintenance class (Theorem 4.5)."""
        return self.classification.im_class

    @property
    def language(self) -> Language:
        return self.classification.language

    def chronicle_names(self) -> Tuple[str, ...]:
        """Names of the base chronicles the view depends on."""
        return tuple({c.name: None for c in self.expression.chronicles()})

    @property
    def maintenance_count(self) -> int:
        """How many append events this view has processed."""
        return self._maintenance_count

    # -- maintenance ------------------------------------------------------------------

    def apply_delta(self, delta: "Delta | FoldBatch") -> int:
        """Fold one χ-delta into the view; returns rows folded.

        The χ-delta comes from a compiled plan — computed once per
        shared subexpression per event — and only the fold step is the
        view's.  The registry passes a :data:`FoldBatch` instead: the
        rows of every member of this view's key class that the event
        reached, folded in one pass, and the return value counts every
        member's rows.  The fold runs in the caller's no-access extent,
        and in one of its own only when called outside any.
        """
        batch = delta if type(delta) is list else [(self, delta.rows)]
        key_class = self._key_class
        fold = self._fold_alone if key_class is None else key_class.fold
        if in_maintenance():
            return fold(batch)
        with maintenance_guard():
            return fold(batch)

    def _fold_alone(self, batch: "FoldBatch") -> int:
        """A class of one folds its one ``(view, rows)`` pair."""
        ((_, rows),) = batch
        folded = self._fold(rows)
        self._maintenance_count += 1
        return folded

    def _compile_fold(self) -> Callable[[Sequence[Row]], int]:
        """The view's own fold step, compiled once, at construction
        (:func:`compile_fold` for a class of one)."""
        return compile_fold([self])

    def _show_global_group(self) -> None:
        """A global aggregate always has its single group row (SQL
        semantics: COUNT over the empty set is 0, not absent)."""
        summary = self.summary
        if self._grouped and not summary.grouping and not len(self._state):
            states = summary.initial_states()
            self._state.insert((), states + [summary.view_row((), states)])

    def _unindex(self) -> None:
        """This view's store changed outside its class fold: the class
        map is rebuilt from the members' stores before the next fold."""
        if self._key_class is not None:
            self._key_class.stale = True

    def _put(self, key: Tuple[Any, ...], state: Any) -> List[Any]:
        """Locate *key* once and install a state computed elsewhere;
        returns the key's entry."""
        entry = self._state.get(key)
        if not self._grouped:
            if entry is None:
                entry = [state, self.summary.view_row(key)]
                self._state.insert(key, entry)
            else:
                entry[0] = state
            return entry
        new = [*state, self.summary.view_row(key, state)]
        if entry is None:
            self._state.insert(key, new)
            return new
        entry[:] = new
        return entry

    def _portable(self, entry: List[Any]) -> Any:
        """An entry's state as it is exported: no row, no aliasing."""
        return entry[:-1] if self._grouped else entry[0]

    # -- portable state ---------------------------------------------------------------

    def state_export(self) -> List[Tuple[Tuple[Any, ...], Any]]:
        """The view's fold state as portable ``(key, state)`` items.

        For grouping summaries the state is the accumulator list; for
        projections the multiplicity count.  Together with the summary
        definition this is the view's *entire* durable state — the
        visible rows are a pure function of it (``view_row``) — so the
        items are what crosses process boundaries (shard snapshots) and
        what checkpoints persist.  Items are copies, in the order the
        keys were first seen: later folds do not change them, and the
        visible row is not part of them.
        """
        portable = self._portable
        return [(key, portable(entry)) for key, entry in self._state.items()]

    def state_import(
        self,
        items: Iterable[Tuple[Any, Any]],
        maintenance_count: Optional[int] = None,
        upsert: bool = False,
    ) -> None:
        """Replace the fold state wholesale; rebuilds the visible rows.

        The inverse of :meth:`state_export`: clears current state and
        rebuilds each key's visible row from its imported accumulators,
        so a view rebuilt in a worker process (or restored from a
        checkpoint) holds exactly the state and rows of the view that
        exported, the rows in the order of *items*.  With *upsert*
        nothing is cleared: each item replaces (or adds) its own key, the
        way a delta snapshot is applied over its base.

        Either way recording of touched keys stops — what the recorder
        saw no longer accounts for every change since it started.
        """
        self._touched = None
        self._unindex()
        if maintenance_count is not None:
            self._maintenance_count = maintenance_count
        if not upsert:
            self._state.clear()
        for key, state in items:
            self._put(tuple(key), state)
        if not upsert:
            self._show_global_group()

    def absorb_states(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Merge authoritative per-key states computed elsewhere.

        The parent-side half of process-shard maintenance: a worker
        returns the post-fold state of exactly the keys one window
        touched, and this replaces those keys' accumulators and visible
        rows — one locate per key, as in the fold, so a reader under the
        shard lock sees whole windows or nothing.  Each call counts as one
        maintenance window, mirroring :meth:`apply_delta`, and records the
        keys like a fold.
        """
        self._maintenance_count += 1
        self._unindex()
        put = self._put
        touched = self._touched
        if touched is None:
            for key, state in items:
                put(tuple(key), state)
        else:
            for key, state in items:
                key = tuple(key)
                touched[key] = put(key, state)

    def record_touched(self) -> None:
        """Start recording the keys each fold touches."""
        self._touched = {}

    def take_touched(self) -> Optional[List[Tuple[Tuple[Any, ...], Any]]]:
        """``(key, state)`` items, in :meth:`state_export`'s form, of the
        keys touched since the last call (after :meth:`record_touched`);
        None when the view is not recording.

        The fold already holds each touched key's entry, so this costs no
        second key pass and no second index descent — what a worker
        process sends back per window instead of its whole partition,
        and what a delta snapshot holds instead of the whole view.
        """
        touched = self._touched
        if touched is None:
            return None
        self._touched = {}
        portable = self._portable
        return [(key, portable(entry)) for key, entry in touched.items()]

    def initialize_from_store(self) -> int:
        """Materialize the view from currently stored chronicle history.

        "Each persistent view is materialized when it is initially
        defined" (Section 2.1).  Requires the base chronicles to retain
        the relevant history; views defined before any appends start
        empty.  Returns the number of χ rows folded.
        """
        table = evaluate(self.expression)
        self._unindex()
        return self._fold(Delta(self.expression.schema, table.rows).rows)

    # -- queries ----------------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """The view's visible rows (HAVING filter applied)."""
        rows = (entry[-1] for _, entry in self._state.items())
        if self.summary.having is None:
            return rows
        return (row for row in rows if self.summary.visible(row))

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __len__(self) -> int:
        if self.summary.having is None:
            return len(self._state)
        return sum(1 for _ in self.rows())

    def lookup(self, key: Sequence[Any]) -> Optional[Row]:
        """The view row for one summary key (group key / projected tuple;
        ``()`` for a global aggregate).

        A row hidden by the HAVING filter reads as absent; a key whose
        arity is not the summary key's raises :class:`ViewError`.
        """
        entry = self._state.get(summary_key(self.name, self.summary, key))
        if entry is None or not self.summary.visible(entry[-1]):
            return None
        return entry[-1]

    def value(self, key: Sequence[Any], output: str) -> Any:
        """One output attribute of the row at *key* (None when absent)."""
        row = self.lookup(key)
        return None if row is None else row[output]

    def to_table(self) -> Table:
        """Snapshot of the visible rows (for oracle comparisons)."""
        return Table(self.schema, list(self.rows()))

    def __repr__(self) -> str:
        return (
            f"PersistentView({self.name!r}, {len(self._state)} rows, "
            f"{self.language.value}, {self.im_class.value})"
        )


#: What one event hands a key class's fold: ``(member view, its χ-delta
#: rows)`` for each member the event reached, in slot order.
FoldBatch = List[Tuple[PersistentView, Sequence[Row]]]


class KeyClass:
    """Registered views that share a chronicle set and a summary-key
    lineage, folded as one.

    Every member keeps its own store (so its rows, length, export order
    and lookups are its own); *index* maps a key to the list of every
    member's entry at that key, by slot (``None`` where the member has no
    row), the same entry lists the members' stores hold.  Only the class
    fold keeps *index* current; a member whose store changes another way
    (an import, an absorbed window, a materialization) sets *stale*, and
    the next fold rebuilds *index* from the stores first.
    """

    __slots__ = ("members", "index", "stale", "fold")

    def __init__(self, members: Sequence[PersistentView]) -> None:
        self.members = list(members)
        self.index: Dict[Tuple[Any, ...], List[Optional[List[Any]]]] = {}
        self.stale = True
        for slot, view in enumerate(self.members):
            view._key_class = self
            view._slot = slot
        self.fold: Callable[[FoldBatch], int] = compile_fold(self.members, self)

    @staticmethod
    def admits(view: PersistentView) -> bool:
        """Whether *view* can fold in a class: its store is the default
        hash map, and its class keeps this module's fold seam (a subclass
        that replaces ``apply_delta`` folds alone)."""
        return (
            type(view._state) is HashMap
            and type(view).apply_delta is PersistentView.apply_delta
        )

    def reindex(self) -> None:
        """Rebuild :attr:`index` from the members' stores."""
        index = self.index
        index.clear()
        width = len(self.members)
        for slot, view in enumerate(self.members):
            for key, entry in view._state.items():
                entries = index.get(key)
                if entries is None:
                    entries = index[key] = [None] * width
                entries[slot] = entry
        self.stale = False

    def dissolve(self) -> None:
        """Release the members: each folds into its own store again."""
        for view in self.members:
            if view._key_class is self:
                view._key_class = None
                view._slot = 0


def _fold_parts(view: PersistentView) -> Tuple[Any, ...]:
    """What a fold binds of one view: its key extractor, aggregate steps
    (``None`` for a projection), fresh accumulators, row builder and
    store insert."""
    summary = view.summary
    steps = summary.steps if view._grouped else None
    initial_states = summary.initial_states if view._grouped else None
    return summary.key_of_values, steps, initial_states, summary.view_row, view._state.insert


def compile_fold(
    views: Sequence[PersistentView], key_class: Optional[KeyClass] = None
) -> Callable[..., int]:
    """The fold compiler: one view's fold, or a key class's.

    Grouping is Theorem 4.4: one locate per distinct key, one O(1) step
    per aggregate per row, one visible row built per key; the
    accumulators are stepped in place, so a ``step`` that raises part-way
    leaves the state ahead of its visible rows.  A projection counts each
    row into its tuple's multiplicity.  The step binds every summary and
    store callable it needs here, so a fold reads no attribute of a view
    but the touched-key recorder (and, for a class, the maintenance
    count).

    Without *key_class*, the one view's fold ``fold(rows)`` locates each
    key in the view's own store (a key first seen in a delta whose step
    raises is not stored).  With it, ``fold(batch)`` folds a
    :data:`FoldBatch`: each distinct key of the whole batch is located
    once in the class map, every member's entry there is stepped in
    place, a key new to a member enters the member's store, and the
    counts are added once per fold — ``index_probe`` once per key per
    class, ``index_lookup`` once per key per member, as the members'
    own locates would have counted.
    """
    count = GLOBAL_COUNTERS.count
    if key_class is None:
        (view,) = views
        return _compile_own_fold(view, count)
    parts = []
    for view in views:
        summary = view.summary
        positions = summary.key_positions
        position = positions[0] if len(positions) == 1 else None
        # A visible row that is the key plus the accumulators is built
        # here; any other goes through the summary (``row_schema`` None).
        plain = view._grouped and summary.rows_are_states
        parts.append(
            (position, summary.output_schema if plain else None) + _fold_parts(view)
        )
    width = len(views)
    index = key_class.index
    index_get = index.get
    new_row = object.__new__

    def fold_class(batch: FoldBatch) -> int:
        if key_class.stale:
            key_class.reindex()
        located: Dict[Tuple[Any, ...], List[Any]] = {}
        folded = stepped = lookups = 0
        for view, rows in batch:
            slot = view._slot
            key_position, row_schema, key_of, steps, initial_states, view_row, insert = parts[slot]
            view._maintenance_count += 1
            if len(rows) == 1 and steps is not None:
                # Most members take one row per event: no key dict, and
                # the visible row is built right after the step.
                values = rows[0].values
                key = key_of(values) if key_position is None else (values[key_position],)
                entries = located.get(key)
                if entries is None:
                    entries = index_get(key)  # once per key per class
                    if entries is None:
                        entries = index[key] = [None] * width
                    located[key] = entries
                entry = entries[slot]
                first_seen = entry is None
                if first_seen:
                    entry = entries[slot] = initial_states() + [None]
                for at, step, position in steps:
                    entry[at] = step(entry[at], 1 if position is None else values[position])
                if row_schema is None:
                    entry[-1] = view_row(key, entry[:-1])
                else:
                    visible = entry[-1] = new_row(Row)
                    visible.schema = row_schema
                    visible.values = key + tuple(entry[:-1])
                if first_seen:
                    insert(key, entry)
                folded += 1
                lookups += 1
                stepped += len(steps)
                if view._touched is not None:
                    view._touched[key] = entry
                continue
            touched: Dict[Tuple[Any, ...], List[Any]] = {}
            for row in rows:
                values = row.values
                key = key_of(values) if key_position is None else (values[key_position],)
                entry = touched.get(key)
                if entry is None:
                    entries = located.get(key)
                    if entries is None:
                        entries = index_get(key)  # once per key per class
                        if entries is None:
                            entries = index[key] = [None] * width
                        located[key] = entries
                    entry = entries[slot]
                    if entry is None:
                        if steps is None:
                            entry = entries[slot] = [0, view_row(key)]
                            insert(key, entry)
                        else:
                            entry = entries[slot] = initial_states() + [None]
                    touched[key] = entry
                if steps is None:
                    entry[0] += 1
                else:
                    for at, step, position in steps:
                        entry[at] = step(entry[at], 1 if position is None else values[position])
            if steps is not None:
                stepped += len(rows) * len(steps)
                for key, entry in touched.items():
                    first_seen = entry[-1] is None
                    if row_schema is None:
                        entry[-1] = view_row(key, entry[:-1])
                    else:
                        visible = entry[-1] = new_row(Row)
                        visible.schema = row_schema
                        visible.values = key + tuple(entry[:-1])
                    if first_seen:
                        insert(key, entry)
            folded += len(rows)
            lookups += len(touched)
            if view._touched is not None:
                view._touched.update(touched)
        if folded:
            count("index_lookup", lookups)
            count("index_probe", len(located))
            count("tuple_op", folded)
            if stepped:
                count("aggregate_step", stepped)
        return folded

    return fold_class


def _compile_own_fold(view: PersistentView, count: Callable[..., None]) -> Callable[..., int]:
    """A class of one: the view's fold over its own store."""
    key_of, steps, initial_states, view_row, insert = _fold_parts(view)
    locate = view._state.get
    if steps is None:

        def fold_projection(rows: Sequence[Row]) -> int:
            if not rows:
                return 0
            touched: Dict[Tuple[Any, ...], List[Any]] = {}
            for row in rows:
                key = key_of(row.values)
                entry = touched.get(key)
                if entry is None:
                    entry = locate(key)  # once per key
                    if entry is None:
                        entry = [0, view_row(key)]
                        insert(key, entry)
                    touched[key] = entry
                entry[0] += 1
            count("tuple_op", len(rows))
            if view._touched is not None:
                view._touched.update(touched)
            return len(rows)

        return fold_projection

    def fold_groups(rows: Sequence[Row]) -> int:
        if not rows:
            return 0
        touched: Dict[Tuple[Any, ...], List[Any]] = {}
        for row in rows:
            values = row.values
            key = key_of(values)
            entry = touched.get(key)
            if entry is None:
                entry = locate(key)  # once per key
                if entry is None:
                    entry = initial_states() + [None]
                touched[key] = entry
            for index, step, position in steps:
                entry[index] = step(entry[index], 1 if position is None else values[position])
        count("tuple_op", len(rows))
        count("aggregate_step", len(rows) * len(steps))
        for key, entry in touched.items():
            first_seen = entry[-1] is None
            entry[-1] = view_row(key, entry[:-1])
            if first_seen:
                insert(key, entry)
        if view._touched is not None:
            view._touched.update(touched)
        return len(rows)

    return fold_groups


def summary_key(name: str, summary: Summary, key: Sequence[Any]) -> Tuple[Any, ...]:
    """*key* as a tuple locating one row of view *name*.

    Raises :class:`ViewError` unless *key* is a sequence of as many values
    as *summary*'s key has attributes (none for a global aggregate).
    """
    names = summary.output_schema.key or ()
    if isinstance(key, (tuple, list)) and len(key) == len(names):
        return tuple(key)
    raise ViewError(
        f"view {name!r} is keyed by ({', '.join(names)}): a key is a tuple of "
        f"{len(names)} value(s), got {key!r}"
    )


def _project_table(summary: ProjectSummary, table: Table) -> Table:
    return ra_project(table, list(summary.names))


def _group_table(summary: GroupBySummary, table: Table) -> Table:
    result = ra_group_by(table, list(summary.grouping), list(summary.aggregates))
    # Rebind to the view's schema (domains may be narrower than the
    # generic group_by result) and apply the HAVING filter.
    rows = [
        row.rebind(summary.output_schema)
        for row in result.rows
        if summary.having is None or summary.having.evaluate(row)
    ]
    return Table(summary.output_schema, rows)


#: The set-semantics relational operation each summary applies to χ.
_SUMMARIZE = {ProjectSummary: _project_table, GroupBySummary: _group_table}


def evaluate_summary(summary: Summary) -> Table:
    """Oracle: batch-evaluate a summary over the stored chronicles.

    Computes χ with the batch evaluator and applies the summarization
    with the set-semantics relational operators; the result must equal
    the incrementally maintained view (the golden invariant the test
    suite checks).
    """
    return _SUMMARIZE[type(summary)](summary, evaluate(summary.expression))
