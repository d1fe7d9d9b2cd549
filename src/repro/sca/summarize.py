"""Summarization: from chronicles to relations (Definition 4.3).

The summarized chronicle algebra adds exactly two root operations that
eliminate the sequencing attribute of a chronicle-algebra expression χ:

* **projection with the sequencing attribute projected out** —
  :class:`ProjectSummary`.  The persistent view is the *set* of projected
  tuples; a hidden multiplicity count per tuple makes insert-only
  maintenance exact (a tuple appears in the view while its count > 0).
* **grouping without the sequencing attribute** —
  :class:`GroupBySummary`.  The persistent view holds one row per group;
  maintenance keeps the (decomposed) aggregate accumulator per group and
  steps it in O(1) per inserted tuple, after an O(log |V|) locate.

Summaries are pure *specifications*: the stateful machinery lives in
:class:`repro.sca.view.PersistentView`.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..aggregates.base import AggregateSpec, IncrementalAggregate, identity_finalize
from ..aggregates.standard import Count, Sum
from ..algebra.ast import Node, aggregate_attribute
from ..errors import AlgebraError, NotAChronicleError, SchemaError
from ..relational.predicate import Predicate
from ..relational.schema import Schema
from ..relational.tuples import Row


def _key_getter(positions: Sequence[int]) -> Callable[[Tuple[Any, ...]], Tuple[Any, ...]]:
    """A value tuple → key tuple extractor over fixed *positions*."""
    if len(positions) == 1:
        # itemgetter with one position returns the bare value.
        (position,) = positions
        return lambda values: (values[position],)
    if not positions:
        return lambda values: ()
    return itemgetter(*positions)


def _fold_step(
    function: IncrementalAggregate, position: Optional[int]
) -> Callable[[Any, Any], Any]:
    """*function*'s step as the fold calls it: the C-level ``+`` for SUM,
    and for COUNT(*), whose missing argument the fold passes as 1; the
    aggregate's own ``step`` otherwise (a subclass that overrides
    ``step`` keeps it)."""
    step = type(function).step
    if step is Sum.step or (step is Count.step and position is None):
        return add
    return function.step


class Summary:
    """Base class of the two summarization operations.

    As for the algebra operators, :attr:`param_names` declares the
    constructor arguments after χ; :meth:`over` and portable specs
    derive from it.
    """

    #: Schema of the resulting persistent view (no sequencing attribute).
    output_schema: Schema
    #: Optional visibility filter over output rows (HAVING).
    having: Optional[Predicate] = None
    #: The summary's name in portable plan specs (``None``: not portable).
    tag: Optional[str] = None
    #: The constructor arguments after χ, in constructor order.
    param_names: Tuple[str, ...] = ()

    @property
    def params(self) -> Tuple[Any, ...]:
        """The values of :attr:`param_names`, in constructor order."""
        return tuple(getattr(self, name) for name in self.param_names)

    def over(self, expression: Node) -> "Summary":
        """The same summarization over another χ *expression*."""
        return type(self)(expression, *self.params)

    def visible(self, row: Row) -> bool:
        """Whether *row* passes the summary's visibility filter."""
        return self.having is None or self.having.evaluate(row)

    def __init__(self, expression: Node) -> None:
        if expression.schema.sequence_attribute is None:
            raise NotAChronicleError(
                "summarization applies to chronicle-algebra expressions "
                "(whose schema carries the sequencing attribute)"
            )
        self.expression = expression

    #: The positions in χ's value tuples of the view-location key (group
    #: key / projected tuple), and the key of one delta row from its value
    #: tuple; both set by the subclasses.
    key_positions: Tuple[int, ...]
    key_of_values: Callable[[Tuple[Any, ...]], Tuple[Any, ...]]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.expression!r})"


class ProjectSummary(Summary):
    """Π with the sequencing attribute projected out.

    Parameters
    ----------
    expression:
        The chronicle-algebra expression χ.
    names:
        Projection attributes; must not include χ's sequencing attribute
        and must be non-empty.
    """

    tag = "projection"
    param_names = ("names",)

    def __init__(self, expression: Node, names: Sequence[str]) -> None:
        super().__init__(expression)
        names = list(names)
        if not names:
            raise SchemaError("summary projection requires at least one attribute")
        seq = expression.schema.sequence_attribute
        if seq in names:
            raise AlgebraError(
                f"summary projection must project out the sequencing "
                f"attribute {seq!r}; keeping it belongs to chronicle algebra"
            )
        for name in names:
            expression.schema.position(name)
        self.names: Tuple[str, ...] = tuple(names)
        self.key_positions = tuple(expression.schema.positions(names))
        self.key_of_values = _key_getter(self.key_positions)
        attrs = [expression.schema.attribute(n) for n in names]
        self.output_schema = Schema(attrs, key=list(names))

    def view_row(self, key: Tuple[Any, ...]) -> Row:
        """Build the visible view row for a projected key."""
        return Row.unchecked(self.output_schema, key)

    def __repr__(self) -> str:
        return f"ProjectSummary({list(self.names)}, {self.expression!r})"


class GroupBySummary(Summary):
    """GROUPBY(χ, GL, AL) with the sequencing attribute not in GL.

    Parameters
    ----------
    expression:
        The chronicle-algebra expression χ.
    grouping:
        Grouping attributes (may be empty — the single global group);
        must not include the sequencing attribute.
    aggregates:
        The aggregation list; every function must honour the incremental
        contract (Definition 4.3 rejects non-incremental aggregates).
    having:
        Optional visibility filter over the output rows (HAVING).
    """

    tag = "groupby"
    param_names = ("grouping", "aggregates", "having")

    def __init__(
        self,
        expression: Node,
        grouping: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        having: Optional["Predicate"] = None,
    ) -> None:
        super().__init__(expression)
        grouping = list(grouping)
        seq = expression.schema.sequence_attribute
        if seq in grouping:
            raise AlgebraError(
                f"summary grouping must not include the sequencing attribute "
                f"{seq!r}; grouping by it belongs to chronicle algebra"
            )
        if not aggregates:
            raise AlgebraError("summary grouping requires at least one aggregate")
        for name in grouping:
            expression.schema.position(name)
        for agg in aggregates:
            agg.require_incremental()
            if agg.attribute is not None:
                expression.schema.position(agg.attribute)
        outputs = [a.output for a in aggregates]
        if len(set(outputs)) != len(outputs) or set(outputs) & set(grouping):
            raise SchemaError(f"duplicate output attribute names in {outputs + grouping}")
        self.grouping: Tuple[str, ...] = tuple(grouping)
        self.aggregates: Tuple[AggregateSpec, ...] = tuple(aggregates)
        self.key_positions = tuple(expression.schema.positions(grouping))
        self.key_of_values = _key_getter(self.key_positions)
        attrs = [expression.schema.attribute(n) for n in grouping]
        attrs += [aggregate_attribute(expression.schema, a) for a in aggregates]
        self.output_schema = Schema(attrs, key=list(grouping) if grouping else None)
        #: One ``(accumulator index, step, argument position)`` triple per
        #: aggregation-list entry (position ``None`` for COUNT(*)): the
        #: fold steps a group's accumulator list in place through these,
        #: indexing the χ row instead of looking names up.
        positions = [
            None if a.attribute is None else expression.schema.position(a.attribute)
            for a in self.aggregates
        ]
        self.steps: Tuple[Tuple[int, Callable[[Any, Any], Any], Optional[int]], ...] = tuple(
            (index, _fold_step(a.function, position), position)
            for index, (a, position) in enumerate(zip(self.aggregates, positions))
        )
        # ``finalize`` per aggregate, ``None`` where it is the identity;
        # the whole tuple is ``None`` when every one is (SUM/COUNT/MIN/MAX
        # lists), so the visible row is the key plus the accumulators.
        finalizers = tuple(
            None if type(a.function).finalize is identity_finalize else a.function.finalize
            for a in self.aggregates
        )
        self._finalizers = finalizers if any(finalizers) else None
        #: Whether a group's visible row is its key plus its accumulators
        #: as they are (every finalizer is the identity).
        self.rows_are_states = self._finalizers is None
        # HAVING: a visibility filter over the summary's output rows.  It
        # does not affect maintenance (every group's state is kept — a
        # group may enter/leave the HAVING set as it accumulates); only
        # which rows the view *shows*.
        if having is not None:
            output_names = set(self.output_schema.names)
            unknown = having.attributes() - output_names
            if unknown:
                raise SchemaError(
                    f"HAVING references {sorted(unknown)}, not among the "
                    f"summary outputs {sorted(output_names)}"
                )
        self.having = having

    def initial_states(self) -> List[Any]:
        """Fresh accumulators, one per aggregation-list entry."""
        return [a.function.initial() for a in self.aggregates]

    def view_row(self, key: Tuple[Any, ...], states: Sequence[Any]) -> Row:
        """Build the visible view row for a group's accumulators."""
        finalizers = self._finalizers
        if finalizers is None:
            finals = tuple(states)
        else:
            finals = tuple(
                [
                    state if finalize is None else finalize(state)
                    for finalize, state in zip(finalizers, states)
                ]
            )
        return Row.unchecked(self.output_schema, key + finals)

    def __repr__(self) -> str:
        return (
            f"GroupBySummary({list(self.grouping)}, {list(self.aggregates)}, "
            f"{self.expression!r})"
        )
