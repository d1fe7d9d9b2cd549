"""The reference delta rules: Theorem 4.1, interpreted literally.

Given an append event (one :class:`~repro.core.delta.Delta` per touched
base chronicle), :func:`propagate` computes the delta of any chronicle-
algebra expression using exactly the rewrite rules of the Theorem 4.1
proof:

====================  =====================================================
operator               delta rule
====================  =====================================================
σ_p(E)                 σ_p(ΔE)
Π_A(E)                 Π_A(ΔE)
E1 ∪ E2                ΔE1 ∪ ΔE2
E1 − E2                ΔE1 − ΔE2
E1 ⋈_SN E2             ΔE1 ⋈_SN ΔE2            (old⋈new terms provably empty)
GROUPBY(E, GL∋SN, AL)  GROUPBY(ΔE, GL, AL)     (delta groups are brand new)
E × R                  ΔE × R_current           (proactive updates)
E ⋈_key R              ΔE ⋈_key R_current       (≤ const matches per tuple)
====================  =====================================================

Crucially, no rule reads a stored chronicle or a materialized view: cost
and space depend only on the delta and the relations (Theorem 4.2).  The
two extension operators (chronicle product, non-equijoin) have no such
rule — their deltas are computed, when explicitly permitted, by consulting
the *stored* chronicles, which is exactly why Theorem 4.3 excludes them.

This module maintains nothing.  Views are maintained by the compiled
plans of :mod:`repro.algebra.plan`; this tree walk is the oracle they are
tested against (one rule per operator, one ``tuple_op`` per rule
application) and the only code that can measure what the extension
operators cost (benchmarks E5/E6, :func:`repro.obs.conformance
.certify_expression`).  Nothing else under ``repro`` imports it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from ..complexity.counters import GLOBAL_COUNTERS
from ..core.delta import Delta
from ..errors import ChronicleAccessError
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
from .evaluate import _OPS, evaluate


def propagate(
    node: Node,
    deltas: Mapping[str, Delta],
    allow_chronicle_access: bool = False,
) -> Delta:
    """Compute the delta of *node* for one append event.

    Parameters
    ----------
    node:
        The chronicle-algebra expression.
    deltas:
        Base-chronicle deltas of the append event, keyed by chronicle
        name; chronicles not in the mapping did not change.
    allow_chronicle_access:
        Permit the extension operators (outside CA) to read stored
        chronicle history, so the Theorem 4.3 benchmarks can measure the
        cost CA avoids.
    """
    handler = _HANDLERS.get(type(node))
    if handler is None:
        raise TypeError(f"no delta rule for {type(node).__name__}")
    return handler(node, deltas, allow_chronicle_access)


# -- CA rules ---------------------------------------------------------------------


def _scan(node: ChronicleScan, deltas: Mapping[str, Delta], _: bool) -> Delta:
    delta = deltas.get(node.chronicle.name)
    if delta is None:
        return Delta.empty(node.schema)
    return delta


def _select(node: Select, deltas: Mapping[str, Delta], access: bool) -> Delta:
    child = propagate(node.child, deltas, access)
    rows = []
    for row in child.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        if node.predicate.evaluate(row):
            rows.append(row)
    return Delta(node.schema, rows)


def _project(node: Project, deltas: Mapping[str, Delta], access: bool) -> Delta:
    child = propagate(node.child, deltas, access)
    rows = []
    for row in child.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        rows.append(row.project(node.names, node.schema))
    return Delta(node.schema, rows)


def _union(node: Union, deltas: Mapping[str, Delta], access: bool) -> Delta:
    left = propagate(node.left, deltas, access)
    right = propagate(node.right, deltas, access)
    GLOBAL_COUNTERS.count("tuple_op", len(left.rows) + len(right.rows))
    rows = [row.rebind(node.schema) for row in left.rows]
    rows += [row.rebind(node.schema) for row in right.rows]
    return Delta(node.schema, rows)


def _difference(node: Difference, deltas: Mapping[str, Delta], access: bool) -> Delta:
    left = propagate(node.left, deltas, access)
    right = propagate(node.right, deltas, access)
    removed = {row.values for row in right.rows}
    rows = []
    for row in left.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        if row.values not in removed:
            rows.append(row.rebind(node.schema))
    return Delta(node.schema, rows)


def _seq_join(node: SeqJoin, deltas: Mapping[str, Delta], access: bool) -> Delta:
    left = propagate(node.left, deltas, access)
    right = propagate(node.right, deltas, access)
    if left.is_empty or right.is_empty:
        # The cross terms ΔE1 ⋈ E2_old and E1_old ⋈ ΔE2 are provably empty
        # (fresh sequence numbers cannot match old ones), so an empty side
        # empties the join.
        return Delta.empty(node.schema)
    seq_position = node.right.schema.position(node.right.schema.sequence_attribute)
    buckets: Dict[Any, List[Row]] = {}
    for row in right.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        buckets.setdefault(row.values[seq_position], []).append(row)
    left_seq = node.left.schema.position(node.left.schema.sequence_attribute)
    rows = []
    for lrow in left.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        for rrow in buckets.get(lrow.values[left_seq], ()):
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(node.combine(lrow, rrow))
    return Delta(node.schema, rows)


def _group_by_seq(node: GroupBySeq, deltas: Mapping[str, Delta], access: bool) -> Delta:
    child = propagate(node.child, deltas, access)
    # Every group key contains the (fresh) sequence number, so the delta's
    # groups are complete, brand-new groups: aggregate them outright.
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
    return Delta(node.schema, rows)


def _rel_product(node: RelProduct, deltas: Mapping[str, Delta], access: bool) -> Delta:
    child = propagate(node.child, deltas, access)
    if child.is_empty:
        return Delta.empty(node.schema)
    # Proactive updates guarantee the current version is the right one for
    # fresh sequence numbers; |R| tuple operations per delta tuple.
    rows = []
    for crow in child.rows:
        for rrow in node.relation.rows():
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(node.combine(crow, rrow))
    return Delta(node.schema, rows)


def _rel_key_join(node: RelKeyJoin, deltas: Mapping[str, Delta], access: bool) -> Delta:
    child = propagate(node.child, deltas, access)
    if child.is_empty:
        return Delta.empty(node.schema)
    rows = []
    for crow in child.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        for rrow in node.relation.lookup(node.relation_attrs, node.probe_key(crow)):
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(node.combine(crow, rrow))
    return Delta(node.schema, rows)


# -- extension rules (Theorem 4.3: these NEED the chronicle) -----------------------


def _chronicle_product(node: ChronicleProduct, deltas: Mapping[str, Delta], access: bool) -> Delta:
    if not access:
        raise ChronicleAccessError(
            "maintaining a chronicle-chronicle cross product requires reading "
            "stored chronicle history (Theorem 4.3); it is outside CA"
        )
    left_delta = propagate(node.left, deltas, access)
    right_delta = propagate(node.right, deltas, access)
    left_full = list(evaluate(node.left))
    right_full = list(evaluate(node.right))
    right_delta_values = {row.values for row in right_delta.rows}
    rows = []
    # Δ(E1×E2) = ΔE1 × E2_new  ∪  (E1_new − ΔE1) × ΔE2
    for lrow in left_delta.rows:
        for rrow in right_full:
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(node.combine(lrow, rrow))
    left_delta_values = {row.values for row in left_delta.rows}
    for lrow in left_full:
        if lrow.values in left_delta_values:
            continue
        for rrow in right_delta.rows:
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(node.combine(lrow, rrow))
    return Delta(node.schema, rows)


def _non_equi_join(node: NonEquiSeqJoin, deltas: Mapping[str, Delta], access: bool) -> Delta:
    if not access:
        raise ChronicleAccessError(
            "maintaining a non-equijoin between chronicles requires reading "
            "stored chronicle history (Theorem 4.3); it is outside CA"
        )
    compare = _OPS[node.op]
    left_delta = propagate(node.left, deltas, access)
    right_delta = propagate(node.right, deltas, access)
    left_full = list(evaluate(node.left))
    right_full = list(evaluate(node.right))
    left_seq = node.left.schema.position(node.left.schema.sequence_attribute)
    right_seq = node.right.schema.position(node.right.schema.sequence_attribute)
    left_delta_values = {row.values for row in left_delta.rows}
    rows = []
    for lrow in left_delta.rows:
        for rrow in right_full:
            GLOBAL_COUNTERS.count("tuple_op")
            if compare(lrow.values[left_seq], rrow.values[right_seq]):
                rows.append(node.combine(lrow, rrow))
    for lrow in left_full:
        if lrow.values in left_delta_values:
            continue
        for rrow in right_delta.rows:
            GLOBAL_COUNTERS.count("tuple_op")
            if compare(lrow.values[left_seq], rrow.values[right_seq]):
                rows.append(node.combine(lrow, rrow))
    return Delta(node.schema, rows)


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
