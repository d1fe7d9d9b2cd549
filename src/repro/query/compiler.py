"""Compile parsed view definitions into chronicle-algebra summaries.

The compiler resolves names against a :class:`Catalog` (chronicles and
relations), builds the operator tree bottom-up (scan → joins → selection)
and finishes with the summarization step, producing a
:class:`~repro.sca.summarize.Summary` ready to back a persistent view.
Language classification falls out of the resulting tree:

* ``JOIN relation ON key``      → :class:`RelKeyJoin` → CA⋈ → IM-log(R)
* ``CROSS JOIN relation``       → :class:`RelProduct` → CA → IM-R^k
* no relation operators         → CA1 → IM-Constant

The compiler tracks attribute provenance through joins (clashing
relation attributes are renamed ``r_name``), so qualified references like
``customers.state`` resolve to the right output attribute.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from ..aggregates.base import AggregateSpec
from ..aggregates.registry import DEFAULT_REGISTRY, AggregateRegistry
from ..algebra.ast import ChronicleScan, Node
from ..core.chronicle import Chronicle
from ..errors import CompileError
from ..relational.predicate import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
)
from .ast import (
    AndExpr,
    ColumnRef,
    ComparisonExpr,
    JoinClause,
    Literal,
    NotExpr,
    OrExpr,
    SelectStatement,
    ViewDefinition,
)
from .parser import parse_select, parse_view
from ..sca.summarize import GroupBySummary, ProjectSummary, Summary

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


class CompiledView:
    """The result of compiling a full view definition.

    Attributes
    ----------
    name:
        View name from the statement.
    summary:
        The compiled summarization.
    periodic:
        The parsed :class:`~repro.query.ast.PeriodicSpec`, or ``None``
        for an ordinary persistent view.
    chronon_of:
        Row → chronon callable derived from the spec's BY column, or
        ``None`` to use the group's sequence-number mapping.
    """

    __slots__ = ("name", "summary", "periodic", "chronon_of")

    def __init__(self, name: str, summary: Summary, periodic: Any,
                 chronon_of: Any) -> None:
        self.name = name
        self.summary = summary
        self.periodic = periodic
        self.chronon_of = chronon_of

    @property
    def is_periodic(self) -> bool:
        return self.periodic is not None


class Catalog:
    """Name resolution context: chronicles and relations by name."""

    def __init__(
        self,
        chronicles: Optional[Dict[str, Chronicle]] = None,
        relations: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.chronicles: Dict[str, Chronicle] = dict(chronicles or {})
        self.relations: Dict[str, Any] = dict(relations or {})

    def add_chronicle(self, chronicle: Chronicle) -> None:
        self.chronicles[chronicle.name] = chronicle

    def add_relation(self, relation: Any) -> None:
        self.relations[relation.name] = relation

    def kind_of(self, name: str) -> str:
        if name in self.chronicles and name in self.relations:
            raise CompileError(f"{name!r} names both a chronicle and a relation")
        if name in self.chronicles:
            return "chronicle"
        if name in self.relations:
            return "relation"
        raise CompileError(f"unknown chronicle or relation {name!r}")


class _Scope:
    """Tracks attribute provenance as the operator tree grows."""

    def __init__(self) -> None:
        # (qualifier, original_name) -> current output attribute name
        self._qualified: Dict[Tuple[str, str], str] = {}
        # unqualified original name -> output name, or "" when ambiguous
        self._unqualified: Dict[str, str] = {}

    def add(self, qualifier: str, original: str, output: str) -> None:
        self._qualified[(qualifier, original)] = output
        if original in self._unqualified and self._unqualified[original] != output:
            self._unqualified[original] = ""
        else:
            self._unqualified.setdefault(original, output)

    def resolve(self, column: ColumnRef) -> str:
        if column.source is not None:
            try:
                return self._qualified[(column.source, column.name)]
            except KeyError:
                raise CompileError(
                    f"unknown column {column.source}.{column.name}"
                ) from None
        output = self._unqualified.get(column.name)
        if output is None:
            raise CompileError(f"unknown column {column.name!r}")
        if output == "":
            raise CompileError(
                f"column {column.name!r} is ambiguous; qualify it with its "
                f"chronicle or relation name"
            )
        return output

    def has(self, column: ColumnRef) -> bool:
        try:
            self.resolve(column)
            return True
        except CompileError:
            return False


class Compiler:
    """Compiles view-definition ASTs against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        aggregates: Optional[AggregateRegistry] = None,
    ) -> None:
        self.catalog = catalog
        self.aggregates = aggregates if aggregates is not None else DEFAULT_REGISTRY

    # -- public entry points -----------------------------------------------------------

    def compile_view(self, source: Union[str, ViewDefinition]) -> Tuple[str, Summary]:
        """Compile ``DEFINE VIEW`` text (or AST) to ``(name, summary)``.

        Rejects periodic definitions — use :meth:`compile_definition` for
        the full ``DEFINE [PERIODIC] VIEW`` language.
        """
        definition = parse_view(source) if isinstance(source, str) else source
        if definition.periodic is not None:
            raise CompileError(
                f"view {definition.name!r} is periodic; compile it with "
                f"compile_definition() / define it via the database"
            )
        return definition.name, self.compile_select(definition.select)

    def compile_definition(
        self, source: Union[str, ViewDefinition]
    ) -> "CompiledView":
        """Compile a full ``DEFINE [PERIODIC] VIEW`` statement."""
        definition = parse_view(source) if isinstance(source, str) else source
        summary = self.compile_select(definition.select)
        chronon_of = None
        calendar_spec = definition.periodic
        if calendar_spec is not None and calendar_spec.by is not None:
            chronicle = self.catalog.chronicles[definition.select.source]
            by = calendar_spec.by
            if by.source is not None and by.source != definition.select.source:
                raise CompileError(
                    f"periodic BY column must come from the chronicle "
                    f"{definition.select.source!r}, not {by.source!r}"
                )
            position = chronicle.schema.position(by.name)

            def chronon_of(row, _position=position):  # noqa: ANN001
                return float(row.values[_position])

        return CompiledView(definition.name, summary, calendar_spec, chronon_of)

    def compile_select(self, source: Union[str, SelectStatement]) -> Summary:
        """Compile a SELECT (text or AST) into a summarization.

        Top-level WHERE conjuncts that reference only base-chronicle
        attributes are pushed below the joins.  Besides the usual
        join-input reduction, this is what makes the Section 5.2
        affected-view prefilter effective: prefilters are harvested from
        selections sitting directly above chronicle scans.
        """
        statement = parse_select(source) if isinstance(source, str) else source
        node, scope = self._compile_from(statement)
        if statement.where is not None:
            predicate = self._compile_predicate(statement.where, scope)
            node = self._apply_where(statement, predicate, node, scope)
        return self._compile_summary(statement, node, scope)

    def _apply_where(
        self,
        statement: SelectStatement,
        predicate: Predicate,
        node: Node,
        scope: _Scope,
    ) -> Node:
        conjuncts = predicate.terms if isinstance(predicate, And) else (predicate,)
        chronicle = self.catalog.chronicles[statement.source]
        base_names = set(chronicle.schema.names)
        pushdown = [c for c in conjuncts if c.attributes() <= base_names]
        residual = [c for c in conjuncts if not (c.attributes() <= base_names)]
        if not pushdown or not statement.joins:
            return node.select(predicate)
        # Rebuild: scan → pushed selections → joins → residual selections.
        # Chronicle attribute names are stable through the joins (the left
        # operand's names are preserved), so the compiled conjuncts remain
        # valid directly above the scan.
        rebuilt: Node = ChronicleScan(chronicle)
        for conjunct in pushdown:
            rebuilt = rebuilt.select(conjunct)
        rebuild_scope = _Scope()
        for name in chronicle.schema.names:
            rebuild_scope.add(statement.source, name, name)
        for join in statement.joins:
            rebuilt = self._compile_join(rebuilt, join, rebuild_scope)
        if residual:
            rebuilt = rebuilt.select(
                residual[0] if len(residual) == 1 else And(*residual)
            )
        return rebuilt

    # -- FROM / JOIN ---------------------------------------------------------------------

    def _compile_from(self, statement: SelectStatement) -> Tuple[Node, _Scope]:
        kind = self.catalog.kind_of(statement.source)
        if kind != "chronicle":
            raise CompileError(
                f"persistent views summarize chronicles; FROM {statement.source!r} "
                f"is a relation (query relations directly instead)"
            )
        chronicle = self.catalog.chronicles[statement.source]
        node: Node = ChronicleScan(chronicle)
        scope = _Scope()
        for name in chronicle.schema.names:
            scope.add(statement.source, name, name)
        for join in statement.joins:
            node = self._compile_join(node, join, scope)
        return node, scope

    def _compile_join(self, node: Node, join: JoinClause, scope: _Scope) -> Node:
        kind = self.catalog.kind_of(join.source)
        if kind == "chronicle":
            return self._compile_chronicle_join(node, join, scope)
        relation = self.catalog.relations[join.source]
        if join.cross:
            new_names = node.schema.concat_names(relation.schema)
            product = node.product(relation)
            for original, output in zip(relation.schema.names, new_names):
                scope.add(join.source, original, output)
            return product
        pairs: List[Tuple[str, str]] = []
        for left, right in join.on:
            chronicle_col, relation_col = self._orient_pair(left, right, join.source, scope)
            pairs.append((scope.resolve(chronicle_col), relation_col.name))
        keyjoin = node.keyjoin(relation, pairs)
        joined = {r for _, r in pairs}
        kept = [n for n in relation.schema.names if n not in joined]
        new_names = node.schema.concat_names(relation.schema.project(kept))
        for original, output in zip(kept, new_names):
            scope.add(join.source, original, output)
        # Qualified references to the joined key resolve to the chronicle
        # attribute (the values are equal by the join predicate).
        for chronicle_attr, relation_attr in pairs:
            scope.add(join.source, relation_attr, chronicle_attr)
        return keyjoin

    def _compile_chronicle_join(self, node: Node, join: JoinClause, scope: _Scope) -> Node:
        chronicle = self.catalog.chronicles[join.source]
        seq = chronicle.schema.sequence_attribute
        if join.cross:
            raise CompileError(
                "cross products between chronicles are outside chronicle "
                "algebra (Theorem 4.3); join chronicles on their sequence "
                "numbers instead"
            )
        if len(join.on) != 1:
            raise CompileError(
                "chronicle-chronicle joins must be a single equality on the "
                "sequencing attributes"
            )
        left_col, right_col = join.on[0]
        side_cols = {left_col, right_col}
        resolved_left = scope.has(left_col)
        chronicle_col = right_col if resolved_left else left_col
        existing_col = left_col if resolved_left else right_col
        left_seq = node.schema.sequence_attribute
        if scope.resolve(existing_col) != left_seq or chronicle_col.name != seq:
            raise CompileError(
                f"chronicle-chronicle joins must equate the sequencing "
                f"attributes ({left_seq!r} = {join.source}.{seq!r}); other "
                f"join conditions are outside chronicle algebra (Theorem 4.3)"
            )
        right_node = ChronicleScan(chronicle)
        right_kept = [n for n in chronicle.schema.names if n != seq]
        joined = node.join(right_node)
        new_names = node.schema.concat_names(chronicle.schema.project(right_kept))
        for original, output in zip(right_kept, new_names):
            scope.add(join.source, original, output)
        scope.add(join.source, seq, left_seq)
        return joined

    @staticmethod
    def _orient_pair(
        left: ColumnRef, right: ColumnRef, relation_name: str, scope: _Scope
    ) -> Tuple[ColumnRef, ColumnRef]:
        """Order an ON equality as (chronicle-side, relation-side)."""
        left_is_relation = left.source == relation_name
        right_is_relation = right.source == relation_name
        if left_is_relation and not right_is_relation:
            return right, left
        if right_is_relation and not left_is_relation:
            return left, right
        # Fall back to scope resolution for unqualified columns.
        if scope.has(left) and not scope.has(right):
            return left, right
        if scope.has(right) and not scope.has(left):
            return right, left
        raise CompileError(
            f"cannot orient join condition {left} = {right}; qualify the "
            f"columns with their sources"
        )

    # -- WHERE ------------------------------------------------------------------------------

    def _compile_predicate(self, expr: Any, scope: _Scope) -> Predicate:
        if isinstance(expr, ComparisonExpr):
            return self._compile_comparison(expr, scope)
        if isinstance(expr, OrExpr):
            return Or(*(self._compile_predicate(t, scope) for t in expr.terms))
        if isinstance(expr, AndExpr):
            return And(*(self._compile_predicate(t, scope) for t in expr.terms))
        if isinstance(expr, NotExpr):
            return Not(self._compile_predicate(expr.term, scope))
        raise CompileError(f"unsupported predicate expression {expr!r}")

    def _compile_comparison(self, expr: ComparisonExpr, scope: _Scope) -> Predicate:
        left, op, right = expr.left, expr.op, expr.right
        if isinstance(left, Literal):
            # Normalize "5 < x" to "x > 5".
            left, right = right, left
            op = _FLIP[op]
        assert isinstance(left, ColumnRef)
        attr = scope.resolve(left)
        if isinstance(right, Literal):
            return Comparison(attr, op, right.value)
        return Comparison(attr, op, scope.resolve(right), rhs_is_attr=True)

    # -- SELECT list / summarization --------------------------------------------------------

    def _compile_summary(
        self, statement: SelectStatement, node: Node, scope: _Scope
    ) -> Summary:
        seq = node.schema.sequence_attribute
        has_aggregates = any(item.aggregate for item in statement.items)
        if not has_aggregates and statement.group_by:
            raise CompileError("GROUP BY requires at least one aggregate in SELECT")
        if not has_aggregates:
            if statement.having is not None:
                raise CompileError("HAVING requires grouping with aggregates")
            names = []
            for item in statement.items:
                assert item.column is not None
                name = scope.resolve(item.column)
                if item.alias is not None and item.alias != name:
                    raise CompileError(
                        "aliasing projected columns is not supported; "
                        "the view exposes the source attribute names"
                    )
                if name == seq:
                    raise CompileError(
                        f"selecting the sequencing attribute {seq!r} keeps the "
                        f"result a chronicle; persistent views must summarize "
                        f"it away (Definition 4.3)"
                    )
                names.append(name)
            return ProjectSummary(node, names)
        grouping = []
        for column in statement.group_by:
            name = scope.resolve(column)
            if name == seq:
                raise CompileError(
                    f"grouping by the sequencing attribute {seq!r} keeps the "
                    f"result a chronicle; persistent views must summarize it "
                    f"away (Definition 4.3)"
                )
            grouping.append(name)
        grouping_set = set(grouping)
        specs: List[AggregateSpec] = []
        for item in statement.items:
            if item.aggregate is None:
                assert item.column is not None
                name = scope.resolve(item.column)
                if name not in grouping_set:
                    raise CompileError(
                        f"column {name!r} appears in SELECT but not in GROUP BY"
                    )
                continue
            function = self.aggregates.get(item.aggregate)
            attribute = None
            if item.column is not None:
                attribute = scope.resolve(item.column)
            elif function.takes_argument:
                raise CompileError(f"{function.name} requires a column argument")
            specs.append(AggregateSpec(function, attribute, item.alias))
        having = None
        if statement.having is not None:
            # HAVING resolves against the summary's output attributes:
            # grouping names plus aggregate output names/aliases.
            output_scope = _Scope()
            for name in grouping:
                output_scope.add("", name, name)
            for spec in specs:
                output_scope.add("", spec.output, spec.output)
            having = self._compile_predicate(statement.having, output_scope)
        return GroupBySummary(node, grouping, specs, having=having)


def compile_view(
    source: str,
    catalog: Catalog,
    aggregates: Optional[AggregateRegistry] = None,
) -> Tuple[str, Summary]:
    """One-shot convenience: compile ``DEFINE VIEW`` text."""
    return Compiler(catalog, aggregates).compile_view(source)
