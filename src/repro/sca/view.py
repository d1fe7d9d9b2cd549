"""Persistent views: materialized SCA summaries, maintained incrementally.

A :class:`PersistentView` owns

* the chronicle-algebra expression χ and its summarization
  (:class:`~repro.sca.summarize.Summary`);
* the materialized relation holding the view's visible rows;
* per-group aggregate accumulators (or per-tuple multiplicities) in a
  B+-tree keyed by the summary key — the O(log |V|) locate step of
  Theorem 4.4;
* its :class:`~repro.algebra.classify.Classification` (language fragment
  and IM class).

The maintenance path (:meth:`apply_delta`, fed by a compiled plan of
:mod:`repro.algebra.plan`) runs under the chronicle no-access guard:
computing the χ-delta and folding it into the view can never read a
chronicle store, which is the mechanical content of Theorems 4.2/4.4.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..algebra.ast import Node
from ..algebra.classify import Classification, IMClass, Language, classify
from ..algebra.evaluate import evaluate
from ..algebra.plan import CompiledPlan, standalone_plan
from ..complexity.counters import GLOBAL_COUNTERS
from ..core.chronicle import maintenance_guard
from ..core.delta import Delta
from ..errors import ViewError
from ..relational.algebra import Table, group_by as ra_group_by, project as ra_project
from ..relational.relation import Relation
from ..relational.tuples import Row
from ..storage.btree import BPlusTree
from .summarize import GroupBySummary, ProjectSummary, Summary


class PersistentView:
    """A materialized, incrementally maintained SCA view.

    Parameters
    ----------
    name:
        View name (also the name of the materialized relation).
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
        self.relation = Relation(name, summary.output_schema)
        self._grouped = isinstance(summary, GroupBySummary)
        # Summary-key → one mutable entry per key.  Grouping: the
        # accumulators followed by the slot of the key's visible row in
        # ``relation`` — ``[acc_1, …, acc_|AL|, slot]``; projection: the
        # multiplicity, ``[count]``.  The index hands the entry itself
        # back from ``get``, so a fold locates a key once, steps the
        # entry in place and swaps the visible row by slot.  A B+-tree by
        # default — the paper's O(log |V|) locate; a unique hash index
        # can be substituted (expected O(1), no ordered scans) via
        # *state_index* — the A1 ablation measures the difference.
        self._state = state_index if state_index is not None else BPlusTree(unique=True)
        # key → entry of every key folded since the last take_touched();
        # None (the default) records nothing.
        self._touched: Optional[Dict[Tuple[Any, ...], List[Any]]] = None
        self._maintenance_count = 0
        # Compiled by the first apply_event(); registry-owned views never
        # need it.
        self._plan: Optional[CompiledPlan] = None
        self._show_global_group()

    # -- introspection ---------------------------------------------------------------

    @property
    def schema(self):
        """The view's output schema (no sequencing attribute)."""
        return self.relation.schema

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

    def apply_event(self, deltas: Mapping[str, Delta]) -> int:
        """Maintain the view for one append event; returns rows folded.

        The view's own plan, compiled on first use, computes the χ-delta
        under the no-access guard.  This is the path of a view no
        registry owns; a registry's plans share subexpressions across
        views, so it computes the χ-delta and calls :meth:`apply_delta`.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = standalone_plan(self.expression)
        with maintenance_guard():
            delta = plan(deltas)
        return self.apply_delta(delta)

    def apply_delta(self, delta: Delta) -> int:
        """Fold one χ-delta into the view; returns rows folded.

        The χ-delta comes from a compiled plan — computed once per
        shared subexpression per event — and only the fold step is the
        view's.  The fold runs under the chronicle no-access guard.
        """
        with maintenance_guard():
            folded = self._fold(delta)
        self._maintenance_count += 1
        return folded

    def _fold(self, delta: Delta) -> int:
        if delta.is_empty:
            return 0
        if self._grouped:
            return self._fold_groups(delta)
        return self._fold_projection(delta)

    def _fold_groups(self, delta: Delta) -> int:
        """Theorem 4.4: one locate per distinct key, one O(1) step per
        aggregate per row, one visible-row swap per key.

        The accumulators are stepped in place, so a ``step`` that raises
        part-way leaves this view's state ahead of its visible rows.
        """
        summary = self.summary
        rows = delta.rows
        key_of = summary.key_of_values
        steps = summary.steps
        locate = self._state.get
        touched: Dict[Tuple[Any, ...], List[Any]] = {}
        for row in rows:
            values = row.values
            key = key_of(values)
            entry = touched.get(key)
            if entry is None:
                entry = locate(key)  # O(log |V|), once per key
                if entry is None:
                    entry = summary.initial_states() + [None]
                touched[key] = entry
            for index, step, position in steps:
                entry[index] = step(
                    entry[index], 1 if position is None else values[position]
                )
        GLOBAL_COUNTERS.count("tuple_op", len(rows))
        GLOBAL_COUNTERS.count("aggregate_step", len(rows) * len(steps))
        view_row = summary.view_row
        replace_at = self.relation.replace_at
        for key, entry in touched.items():
            slot = entry[-1]
            if slot is None:
                self._show_group(key, entry)
            else:
                replace_at(slot, view_row(key, entry[:-1]))
        if self._touched is not None:
            self._touched.update(touched)
        return len(rows)

    def _show_group(self, key: Tuple[Any, ...], entry: List[Any]) -> None:
        """Index and show a group not seen before: one ``relation``
        insert and one index insert, after which the entry remembers the
        slot its visible row is swapped by."""
        row = self.summary.view_row(key, entry[:-1])
        entry[-1] = self.relation.insert_at_key(key, row)
        self._state.insert(key, entry)

    def _show_global_group(self) -> None:
        """A global aggregate always has its single group row (SQL
        semantics: COUNT over the empty set is 0, not absent)."""
        summary = self.summary
        if self._grouped and not summary.grouping and not len(self._state):
            self._show_group((), summary.initial_states() + [None])

    def _fold_projection(self, delta: Delta) -> int:
        summary = self.summary
        rows = delta.rows
        key_of = summary.key_of_values
        locate = self._state.get
        touched: Dict[Tuple[Any, ...], List[Any]] = {}
        for row in rows:
            key = key_of(row.values)
            entry = touched.get(key)
            if entry is None:
                entry = locate(key)  # O(log |V|), once per key
                if entry is None:
                    entry = self._show_tuple(key, 0)
                touched[key] = entry
            entry[0] += 1
        GLOBAL_COUNTERS.count("tuple_op", len(rows))
        if self._touched is not None:
            self._touched.update(touched)
        return len(rows)

    def _show_tuple(self, key: Tuple[Any, ...], count: int) -> List[Any]:
        """Index and show a projected tuple not seen before; its entry."""
        entry = [count]
        self._state.insert(key, entry)
        self.relation.insert_at_key(key, self.summary.view_row(key))
        return entry

    def _put(self, key: Tuple[Any, ...], state: Any) -> None:
        """Locate *key* once and install a state computed elsewhere."""
        entry = self._state.get(key)
        if not self._grouped:
            if entry is None:
                self._show_tuple(key, state)
            else:
                entry[0] = state
        elif entry is None:
            self._show_group(key, list(state) + [None])
        else:
            entry[:-1] = state
            self.relation.replace_at(entry[-1], self.summary.view_row(key, state))

    def _portable(self, entry: List[Any]) -> Any:
        """An entry's state as it is exported: no slot, no aliasing."""
        return entry[:-1] if self._grouped else entry[0]

    # -- portable state ---------------------------------------------------------------

    def state_export(self) -> List[Tuple[Tuple[Any, ...], Any]]:
        """The view's fold state as portable ``(key, state)`` items.

        For grouping summaries the state is the accumulator list; for
        projections the multiplicity count.  Together with the summary
        definition this is the view's *entire* durable state — the
        visible rows are a pure function of it (``view_row``) — so the
        items are what crosses process boundaries (shard snapshots) and
        what checkpoints persist.  Items are copies: later folds do not
        change them, and where a row sits in the relation is not part
        of them.
        """
        portable = self._portable
        return [(key, portable(entry)) for key, entry in self._state.items()]

    def state_import(
        self,
        items: Iterable[Tuple[Any, Any]],
        maintenance_count: Optional[int] = None,
    ) -> None:
        """Replace the fold state wholesale; rebuilds the visible rows.

        The inverse of :meth:`state_export`: clears current state and
        regenerates the materialized relation from the imported
        accumulators, so a view rebuilt in a worker process (or restored
        from a checkpoint) holds exactly the state and rows of the view
        that exported, the rows in the order of *items*.
        """
        if maintenance_count is not None:
            self._maintenance_count = maintenance_count
        self.relation.clear()
        self._state.clear()
        for key, state in items:
            self._put(tuple(key), state)
        self._show_global_group()

    def absorb_states(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Merge authoritative per-key states computed elsewhere.

        The parent-side half of process-shard maintenance: a worker
        returns the post-fold state of exactly the keys one window
        touched, and this replaces those keys' accumulators and visible
        rows — the same locate-once insert/swap discipline as
        :meth:`_fold`, so a reader under the shard lock sees whole
        windows or nothing.  Each call counts as one maintenance window,
        mirroring :meth:`apply_delta`.
        """
        self._maintenance_count += 1
        for key, state in items:
            self._put(tuple(key), state)

    def record_touched(self) -> None:
        """Start recording the keys each fold touches."""
        self._touched = {}

    def take_touched(self) -> List[Tuple[Tuple[Any, ...], Any]]:
        """``(key, state)`` items, in :meth:`state_export`'s form, of the
        keys touched since the last call (after :meth:`record_touched`).

        The fold already holds each touched key's entry, so this costs no
        second key pass and no second index descent — what a worker
        process sends back per window instead of its whole partition.
        """
        touched, self._touched = self._touched, {}
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
        return self._fold(Delta(self.expression.schema, table.rows))

    # -- queries ----------------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """The view's visible rows (HAVING filter applied)."""
        if self.summary.having is None:
            return self.relation.rows()
        return (row for row in self.relation.rows() if self.summary.visible(row))

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __len__(self) -> int:
        if self.summary.having is None:
            return len(self.relation)
        return sum(1 for _ in self.rows())

    def lookup(self, key: Sequence[Any]) -> Optional[Row]:
        """The view row for one summary key (group key / projected tuple).

        A row hidden by the HAVING filter reads as absent.
        """
        if self.relation.schema.key is None:
            rows = list(self.relation.rows())
            row = rows[0] if rows else None
        else:
            row = self.relation.lookup_key(tuple(key))
        if row is not None and not self.summary.visible(row):
            return None
        return row

    def value(self, key: Sequence[Any], output: str) -> Any:
        """One output attribute of the row at *key* (None when absent)."""
        row = self.lookup(key)
        return None if row is None else row[output]

    def to_table(self) -> Table:
        """Snapshot of the visible rows (for oracle comparisons)."""
        return Table(self.relation.schema, list(self.rows()))

    def __repr__(self) -> str:
        return (
            f"PersistentView({self.name!r}, {len(self.relation)} rows, "
            f"{self.language.value}, {self.im_class.value})"
        )


def evaluate_summary(summary: Summary) -> Table:
    """Oracle: batch-evaluate a summary over the stored chronicles.

    Computes χ with the batch evaluator and applies the summarization
    with the set-semantics relational operators; the result must equal
    the incrementally maintained view (the golden invariant the test
    suite checks).
    """
    table = evaluate(summary.expression)
    if isinstance(summary, ProjectSummary):
        return ra_project(table, list(summary.names))
    assert isinstance(summary, GroupBySummary)
    result = ra_group_by(table, list(summary.grouping), list(summary.aggregates))
    # Rebind to the view's schema (domains may be narrower than the
    # generic group_by result) and apply the HAVING filter.
    rows = [
        row.rebind(summary.output_schema)
        for row in result.rows
        if summary.having is None or summary.having.evaluate(row)
    ]
    return Table(summary.output_schema, rows)
