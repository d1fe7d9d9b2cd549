"""Immutable rows bound to a schema.

A :class:`Row` is the tuple representation used throughout the library:
by relations, chronicles, deltas, and materialized views.  Rows are
immutable and hashable so that set-based algebra (union, difference,
duplicate elimination) works directly on them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Sequence, Tuple

from ..errors import SchemaError, UnknownAttributeError
from .schema import Schema


class Row:
    """An immutable, schema-typed tuple.

    Rows compare and hash by *values only*; two rows with equal values but
    different (compatible) schemas are equal, which is exactly what set
    semantics for union/difference requires.

    Parameters
    ----------
    schema:
        The schema the values conform to.
    values:
        Positional values; validated and coerced against the schema.
    validate:
        Skip validation when the caller guarantees well-typed values
        (used on hot paths that re-shape already-validated rows).
    """

    __slots__ = ("schema", "values")

    def __init__(self, schema: Schema, values: Sequence[Any], validate: bool = True) -> None:
        self.schema = schema
        if validate:
            self.values: Tuple[Any, ...] = schema.check_values(values)
        else:
            self.values = tuple(values)

    @classmethod
    def from_mapping(cls, schema: Schema, mapping: Mapping[str, Any]) -> "Row":
        """Build a row from an attribute-name → value mapping."""
        names_set = schema.names_set
        extra = [name for name in mapping if name not in names_set]
        if extra:
            raise UnknownAttributeError(
                f"values supplied for unknown attributes {sorted(extra)}"
            )
        try:
            values = [mapping[name] for name in schema.names]
        except KeyError as exc:
            raise SchemaError(f"missing value for attribute {exc.args[0]!r}") from None
        return cls(schema, values)

    @classmethod
    def unchecked(cls, schema: Schema, values: Tuple[Any, ...]) -> "Row":
        """Fast constructor for already-validated value tuples.

        Skips argument normalization entirely: *values* must be a tuple
        whose elements already conform to *schema* — e.g. values taken
        from rows that went through the checked path, reshaped by
        position.  The fused maintenance pipelines
        (:mod:`repro.algebra.plan`) and the group's append path (over
        the tuples :func:`repro.core.chronicle.compile_admission`
        checked) build all their rows this way.
        """
        row = object.__new__(cls)
        row.schema = schema
        row.values = values
        return row

    # -- access -----------------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        return self.values[self.schema.position(name)]

    def get(self, name: str, default: Any = None) -> Any:
        """Value of attribute *name*, or *default* when absent."""
        if name in self.schema:
            return self.values[self.schema.position(name)]
        return default

    def at(self, position: int) -> Any:
        """Value at a positional index (no name lookup)."""
        return self.values[position]

    def as_dict(self) -> Dict[str, Any]:
        """Materialize the row as a plain ``dict``."""
        return dict(zip(self.schema.names, self.values))

    @property
    def sequence_number(self) -> Any:
        """The row's sequence number (rows of chronicle-typed schemas only)."""
        seq = self.schema.sequence_attribute
        if seq is None:
            raise SchemaError("row schema has no sequencing attribute")
        return self.values[self.schema.position(seq)]

    # -- reshaping ----------------------------------------------------------------

    def project(self, names: Sequence[str], schema: Schema = None) -> "Row":
        """Project onto *names*; pass the precomputed *schema* on hot paths."""
        if schema is None:
            schema = self.schema.project(names)
        positions = self.schema.positions(names)
        return Row(schema, tuple(self.values[p] for p in positions), validate=False)

    def concat(self, other: "Row", schema: Schema) -> "Row":
        """Concatenate with *other* under the given combined schema."""
        return Row(schema, self.values + other.values, validate=False)

    def replace(self, **updates: Any) -> "Row":
        """A copy of the row with the named attributes replaced."""
        values = list(self.values)
        for name, value in updates.items():
            values[self.schema.position(name)] = value
        return Row(self.schema, values)

    def rebind(self, schema: Schema) -> "Row":
        """The same values under a different (compatible) schema."""
        if len(schema) != len(self.values):
            raise SchemaError(
                f"cannot rebind {len(self.values)}-ary row to {len(schema)}-ary schema"
            )
        return Row(schema, self.values, validate=False)

    # -- dunder --------------------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.schema.names, self.values)
        )
        return f"Row({inner})"
