"""Delta batches: the change sets flowing through incremental maintenance.

A :class:`Delta` is the set of tuples inserted into one chronicle-algebra
(sub)expression by one append.  Theorem 4.1 (monotonicity) guarantees that
for chronicle-algebra views every delta is *insert-only* and carries only
fresh sequence numbers; both invariants are checkable via
:meth:`Delta.assert_fresh`.

Deltas are deliberately tiny — a schema and a tuple of rows — because the
whole point of the chronicle algebra is that maintenance state is bounded
by the delta, not by the chronicle or the view (Theorem 4.2's space
bound).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from ..errors import SequenceOrderError
from ..relational.schema import Schema
from ..relational.tuples import Row


class Delta:
    """An insert-only change batch for one expression node.

    Parameters
    ----------
    schema:
        Schema of the expression the delta belongs to.
    rows:
        Inserted rows; deduplicated (set semantics within the delta —
        operands of a union may derive the same tuple at one sequence
        number).

    ``rows`` holding no two rows with equal ``values`` is an invariant
    the maintenance path relies on: the group deduplicates each admitted
    batch once, and every step that cannot merge tuples builds its output
    with :meth:`unchecked` instead of deduplicating again.
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Schema, rows: Iterable[Row] = ()) -> None:
        self.schema = schema
        seen = set()
        unique: List[Row] = []
        for row in rows:
            if row.values not in seen:
                seen.add(row.values)
                unique.append(row)
        self.rows: Tuple[Row, ...] = tuple(unique)

    @classmethod
    def unchecked(cls, schema: Schema, rows: Iterable[Row]) -> "Delta":
        """A delta over *rows* that are already distinct (no dedup pass).

        For rows that are a deduplicated admitted batch, a subset of a
        delta's rows, or an injective image of distinct rows (a
        selection, a difference, a sequence or key join, the groups of a
        GROUP BY).
        """
        delta = object.__new__(cls)
        delta.schema = schema
        delta.rows = tuple(rows)
        return delta

    @classmethod
    def empty(cls, schema: Schema) -> "Delta":
        return cls.unchecked(schema, ())

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def sequence_numbers(self) -> Tuple[int, ...]:
        """The distinct sequence numbers appearing in the delta."""
        seq = self.schema.sequence_attribute
        if seq is None:
            return ()
        position = self.schema.position(seq)
        return tuple(sorted({row.values[position] for row in self.rows}))

    def assert_fresh(self, watermark_before: int) -> None:
        """Check the Theorem 4.1 invariant: only new sequence numbers.

        *watermark_before* is the group watermark before the append that
        produced this delta; every sequence number in the delta must
        exceed it.
        """
        for sn in self.sequence_numbers():
            if sn <= watermark_before:
                raise SequenceOrderError(
                    f"delta carries stale sequence number {sn} "
                    f"(watermark before append was {watermark_before}); "
                    f"monotonicity (Theorem 4.1) violated"
                )

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Delta({len(self.rows)} rows, schema={self.schema.names})"
