"""Batch evaluation of chronicle-algebra expressions over stored chronicles.

This is the *oracle*: the non-incremental semantics that incremental
maintenance must agree with.  It requires the base chronicles to retain
their history (``retention=None``) — which is exactly what the chronicle
model says one cannot assume in production, and why the delta engine
exists.

The temporal-join semantics of Section 2.3 is honoured: chronicle-relation
products and joins consult the relation *version* associated with each
chronicle tuple's sequence number (via
:meth:`~repro.relational.versioned.VersionedRelation.version_for`), so
oracle comparisons remain correct even when relations were updated midway
through a replayed stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..complexity.counters import GLOBAL_COUNTERS
from ..relational.algebra import Table
from ..relational.tuples import Row
from .ast import (
    ChronicleProduct,
    ChronicleScan,
    Difference,
    GroupBySeq,
    Node,
    NonEquiSeqJoin,
    Project,
    RelKeyJoin,
    RelProduct,
    Select,
    SeqJoin,
    Union,
)

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "!=": lambda a, b: a != b,
}


def _version_for(relation: Any, sequence_number: int) -> Any:
    """The relation version a tuple at *sequence_number* joins with."""
    version_for = getattr(relation, "version_for", None)
    if version_for is not None:
        return version_for(sequence_number)
    return relation


def evaluate(node: Node) -> Table:
    """Evaluate *node* from scratch over the stored chronicles."""
    return node.fold(_evaluate_step)


def _evaluate_step(node: Node, children: Tuple[Table, ...]) -> Table:
    """One :meth:`Node.fold` step: the operator's rule over its operands' tables."""
    handler = _HANDLERS.get(type(node))
    if handler is None:
        raise TypeError(f"no evaluation rule for {type(node).__name__}")
    return handler(node, *children)


def _scan(node: ChronicleScan) -> Table:
    return Table(node.schema, list(node.chronicle.rows()), dedup=False)


def _select(node: Select, child: Table) -> Table:
    rows = []
    for row in child.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        if node.predicate.evaluate(row):
            rows.append(row)
    return Table(node.schema, rows, dedup=False)


def _project(node: Project, child: Table) -> Table:
    rows = [row.project(node.names, node.schema) for row in child.rows]
    GLOBAL_COUNTERS.count("tuple_op", len(rows))
    return Table(node.schema, rows)


def _union(node: Union, left: Table, right: Table) -> Table:
    GLOBAL_COUNTERS.count("tuple_op", len(left.rows) + len(right.rows))
    rows = [row.rebind(node.schema) for row in left.rows]
    rows += [row.rebind(node.schema) for row in right.rows]
    return Table(node.schema, rows)


def _difference(node: Difference, left: Table, right: Table) -> Table:
    removed = {row.values for row in right.rows}
    rows = [row.rebind(node.schema) for row in left.rows if row.values not in removed]
    GLOBAL_COUNTERS.count("tuple_op", len(left.rows))
    return Table(node.schema, rows)


def _seq_join(node: SeqJoin, left: Table, right: Table) -> Table:
    right_seq = node.right.schema.position(node.right.schema.sequence_attribute)
    buckets: Dict[Any, List[Row]] = {}
    for row in right.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        buckets.setdefault(row.values[right_seq], []).append(row)
    left_seq = node.left.schema.position(node.left.schema.sequence_attribute)
    rows = []
    for lrow in left.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        for rrow in buckets.get(lrow.values[left_seq], ()):
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(node.combine(lrow, rrow))
    return Table(node.schema, rows)


def _group_by_seq(node: GroupBySeq, child: Table) -> Table:
    positions = node.child.schema.positions(node.grouping)
    states: Dict[Any, List[Any]] = {}
    order: List[Any] = []
    for row in child.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        key = tuple(row.values[p] for p in positions)
        if key not in states:
            states[key] = [a.function.initial() for a in node.aggregates]
            order.append(key)
        accumulators = states[key]
        for i, agg in enumerate(node.aggregates):
            GLOBAL_COUNTERS.count("aggregate_step")
            accumulators[i] = agg.function.step(accumulators[i], agg.argument(row))
    rows = []
    for key in order:
        finals = tuple(
            agg.function.finalize(state)
            for agg, state in zip(node.aggregates, states[key])
        )
        rows.append(Row(node.schema, key + finals, validate=False))
    return Table(node.schema, rows, dedup=False)


def _rel_product(node: RelProduct, child: Table) -> Table:
    seq_position = node.child.schema.position(node.child.schema.sequence_attribute)
    rows = []
    for crow in child.rows:
        version = _version_for(node.relation, crow.values[seq_position])
        for rrow in version.rows():
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(node.combine(crow, rrow))
    return Table(node.schema, rows)


def _rel_key_join(node: RelKeyJoin, child: Table) -> Table:
    seq_position = node.child.schema.position(node.child.schema.sequence_attribute)
    rows = []
    for crow in child.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        version = _version_for(node.relation, crow.values[seq_position])
        for rrow in version.lookup(node.relation_attrs, node.probe_key(crow)):
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(node.combine(crow, rrow))
    return Table(node.schema, rows)


def _chronicle_product(node: ChronicleProduct, left: Table, right: Table) -> Table:
    rows = []
    for lrow in left.rows:
        for rrow in right.rows:
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(node.combine(lrow, rrow))
    return Table(node.schema, rows)


def _non_equi_join(node: NonEquiSeqJoin, left: Table, right: Table) -> Table:
    compare = _OPS[node.op]
    left_seq = node.left.schema.position(node.left.schema.sequence_attribute)
    right_seq = node.right.schema.position(node.right.schema.sequence_attribute)
    rows = []
    for lrow in left.rows:
        for rrow in right.rows:
            GLOBAL_COUNTERS.count("tuple_op")
            if compare(lrow.values[left_seq], rrow.values[right_seq]):
                rows.append(node.combine(lrow, rrow))
    return Table(node.schema, rows)


_HANDLERS = {
    ChronicleScan: _scan,
    Select: _select,
    Project: _project,
    Union: _union,
    Difference: _difference,
    SeqJoin: _seq_join,
    GroupBySeq: _group_by_seq,
    RelProduct: _rel_product,
    RelKeyJoin: _rel_key_join,
    ChronicleProduct: _chronicle_product,
    NonEquiSeqJoin: _non_equi_join,
}
