"""Full relational algebra evaluator.

This is the *general* relational algebra extended with grouping and
aggregation — the language Proposition 3.1 shows to be IM-C^k (maintenance
may require arbitrary access to the chronicle).  In this repository it has
two jobs:

* **the baseline**: :mod:`repro.baselines.recompute` re-evaluates views
  from scratch with it, exhibiting the cost the chronicle algebra avoids;
* **the oracle**: tests compare incremental maintenance results against
  batch evaluation over the fully stored chronicle.

Evaluation is set-semantics over immutable :class:`Table` values (schema +
deduplicated row tuple).  Every produced row charges one ``tuple_op`` so
the cost model sees the work.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..aggregates.base import AggregateSpec
from ..complexity.counters import GLOBAL_COUNTERS
from ..errors import SchemaError
from .predicate import Predicate
from .schema import Attribute, Schema
from .tuples import Row


class Table:
    """An immutable evaluation result: a schema plus deduplicated rows."""

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Schema, rows: Iterable[Row], dedup: bool = True) -> None:
        self.schema = schema
        if dedup:
            seen = set()
            unique: List[Row] = []
            for row in rows:
                if row.values not in seen:
                    seen.add(row.values)
                    unique.append(row)
            self.rows: Tuple[Row, ...] = tuple(unique)
        else:
            self.rows = tuple(rows)

    @classmethod
    def from_relation(cls, relation: Any) -> "Table":
        """Build from anything exposing ``schema`` and row iteration."""
        return cls(relation.schema, list(relation))

    def to_set(self) -> frozenset:
        return frozenset(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.to_set() == other.to_set()

    def __hash__(self) -> int:
        return hash(self.to_set())

    def __repr__(self) -> str:
        return f"Table({len(self.rows)} rows, {self.schema!r})"


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def select(table: Table, predicate: Predicate) -> Table:
    """σ_p — rows of *table* satisfying *predicate*."""
    rows = []
    for row in table.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        if predicate.evaluate(row):
            rows.append(row)
    return Table(table.schema, rows, dedup=False)


def project(table: Table, names: Sequence[str]) -> Table:
    """π — projection onto *names* with duplicate elimination."""
    schema = table.schema.project(names)
    rows = []
    for row in table.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        rows.append(row.project(names, schema))
    return Table(schema, rows)


def rename(table: Table, mapping: Dict[str, str]) -> Table:
    """ρ — rename attributes per *mapping*."""
    schema = table.schema.rename(mapping)
    rows = [row.rebind(schema) for row in table.rows]
    return Table(schema, rows, dedup=False)


def product(left: Table, right: Table) -> Table:
    """× — cartesian product (right-hand clashes prefixed ``r_``)."""
    schema = left.schema.concat(right.schema)
    rows = []
    for lrow in left.rows:
        for rrow in right.rows:
            GLOBAL_COUNTERS.count("tuple_op")
            rows.append(Row(schema, lrow.values + rrow.values, validate=False))
    return Table(schema, rows)


def theta_join(left: Table, right: Table, predicate: Predicate) -> Table:
    """⋈_p — product filtered by *predicate* over the combined schema."""
    schema = left.schema.concat(right.schema)
    rows = []
    for lrow in left.rows:
        for rrow in right.rows:
            GLOBAL_COUNTERS.count("tuple_op")
            combined = Row(schema, lrow.values + rrow.values, validate=False)
            if predicate.evaluate(combined):
                rows.append(combined)
    return Table(schema, rows)


def equi_join(
    left: Table,
    right: Table,
    pairs: Sequence[Tuple[str, str]],
    project_right_keys: bool = True,
) -> Table:
    """Hash equi-join on attribute *pairs* ``(left_attr, right_attr)``.

    With *project_right_keys*, the right-hand join attributes are removed
    from the output (natural-join style), matching the paper's convention
    for the sequence-number equijoin where "one of the sequencing
    attributes is projected out from the result".
    """
    if not pairs:
        raise SchemaError("equi_join requires at least one attribute pair")
    right_key_names = [r for _, r in pairs]
    right_kept = [n for n in right.schema.names if not (project_right_keys and n in right_key_names)]
    out_schema = left.schema.concat(right.schema.project(right_kept))
    buckets: Dict[Tuple[Any, ...], List[Row]] = {}
    right_positions = right.schema.positions(right_key_names)
    for rrow in right.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        buckets.setdefault(tuple(rrow.values[p] for p in right_positions), []).append(rrow)
    left_positions = left.schema.positions([l for l, _ in pairs])
    kept_positions = right.schema.positions(right_kept)
    rows = []
    for lrow in left.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        key = tuple(lrow.values[p] for p in left_positions)
        for rrow in buckets.get(key, ()):
            GLOBAL_COUNTERS.count("tuple_op")
            values = lrow.values + tuple(rrow.values[p] for p in kept_positions)
            rows.append(Row(out_schema, values, validate=False))
    return Table(out_schema, rows)


def union(left: Table, right: Table) -> Table:
    """∪ — set union of compatible tables."""
    left.schema.require_compatible(right.schema, "union")
    GLOBAL_COUNTERS.count("tuple_op", len(left.rows) + len(right.rows))
    return Table(left.schema, list(left.rows) + [r.rebind(left.schema) for r in right.rows])


def difference(left: Table, right: Table) -> Table:
    """− — set difference of compatible tables."""
    left.schema.require_compatible(right.schema, "difference")
    removed = {row.values for row in right.rows}
    rows = []
    for row in left.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        if row.values not in removed:
            rows.append(row)
    return Table(left.schema, rows, dedup=False)


def intersection(left: Table, right: Table) -> Table:
    """∩ — set intersection of compatible tables."""
    left.schema.require_compatible(right.schema, "intersection")
    keep = {row.values for row in right.rows}
    rows = [row for row in left.rows if row.values in keep]
    GLOBAL_COUNTERS.count("tuple_op", len(left.rows))
    return Table(left.schema, rows, dedup=False)


def group_by(
    table: Table,
    grouping: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """GROUPBY(R, GL, AL) in the syntax of [MPR90].

    The result schema is the grouping attributes followed by one attribute
    per aggregation function.  An empty *grouping* produces the single
    global group (even over an empty input, per SQL aggregate semantics).
    """
    group_attrs = [table.schema.attribute(name) for name in grouping]
    agg_attrs = []
    for s in aggregates:
        input_domain = (
            table.schema.attribute(s.attribute).domain if s.attribute is not None else None
        )
        agg_attrs.append(
            Attribute(s.output, s.function.output_domain(input_domain), nullable=True)
        )
    out_schema = Schema(group_attrs + agg_attrs)
    positions = table.schema.positions(grouping)
    states: Dict[Tuple[Any, ...], List[Any]] = {}
    order: List[Tuple[Any, ...]] = []
    for row in table.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        key = tuple(row.values[p] for p in positions)
        if key not in states:
            states[key] = [s.function.initial() for s in aggregates]
            order.append(key)
        accumulators = states[key]
        for i, spec in enumerate(aggregates):
            GLOBAL_COUNTERS.count("aggregate_step")
            accumulators[i] = spec.function.step(accumulators[i], spec.argument(row))
    if not grouping and not order:
        order.append(())
        states[()] = [s.function.initial() for s in aggregates]
    rows = []
    for key in order:
        finals = tuple(
            spec.function.finalize(state)
            for spec, state in zip(aggregates, states[key])
        )
        rows.append(Row(out_schema, key + finals, validate=False))
    return Table(out_schema, rows, dedup=False)


def distinct(table: Table) -> Table:
    """Explicit duplicate elimination (tables are already sets; no-op)."""
    return Table(table.schema, table.rows)


def extend(table: Table, name: str, domain: Any, fn: Callable[[Row], Any],
           nullable: bool = True) -> Table:
    """Append a computed attribute (generalized projection helper)."""
    schema = Schema(
        list(table.schema.attributes) + [Attribute(name, domain, nullable)],
        sequence_attribute=table.schema.sequence_attribute,
    )
    rows = []
    for row in table.rows:
        GLOBAL_COUNTERS.count("tuple_op")
        rows.append(Row(schema, row.values + (fn(row),), validate=False))
    return Table(schema, rows, dedup=False)
