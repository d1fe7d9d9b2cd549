"""Mutable relations with key enforcement and secondary indexes.

Relations in the chronicle model are ordinary relations (Section 2.1):
fully stored, updatable (insert/delete/modify), and joined with chronicles
through the implicit temporal join.  This module provides the storage-and-
index layer; temporal versioning is layered on in
:mod:`repro.relational.versioned`.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..complexity.counters import GLOBAL_COUNTERS
from ..errors import IntegrityError, KeyViolationError, UnknownAttributeError
from ..storage.btree import BPlusTree
from ..storage.hash_index import HashIndex, HashMap
from .predicate import Predicate
from .schema import Schema
from .tuples import Row

RowLike = Union[Row, Mapping[str, Any], Sequence[Any]]


def _as_row(schema: Schema, value: RowLike) -> Row:
    """Coerce mappings/sequences into a schema-validated :class:`Row`."""
    if isinstance(value, Row):
        if value.schema is schema or value.schema.compatible_with(schema):
            return value if value.schema is schema else value.rebind(schema)
        return Row(schema, value.values)
    if isinstance(value, Mapping):
        return Row.from_mapping(schema, value)
    return Row(schema, value)


class Relation:
    """A stored, mutable relation.

    Rows live in one insertion-ordered dict from a row id to the
    :class:`Row`; removing an entry is O(1) and keeps the order, so a
    delete leaves nothing to compact.  When the schema declares a key, a
    :class:`~repro.storage.hash_index.HashMap` maps each key to its row
    id; secondary indexes (hash or B+-tree) map a value to row ids.
    Every mutation checks the key and every unique index before it
    writes, so a refused one leaves the relation as it was.  Inserting
    or deleting rows while iterating :meth:`rows` raises ``RuntimeError``.

    Parameters
    ----------
    name:
        Relation name (used in error messages and the database catalog).
    schema:
        The relation's schema.  When the schema declares a key, a unique
        hash map over it is created automatically.
    """

    __slots__ = ("name", "schema", "_rows", "_next_id", "_key_map", "_key_positions", "_indexes")

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._next_id = 0
        self._indexes: Dict[Tuple[str, ...], Union[HashIndex, BPlusTree]] = {}
        self._key_map: Optional[HashMap] = None
        self._key_positions: Optional[Tuple[int, ...]] = None
        if schema.key is not None:
            self._key_map = HashMap()
            self._key_positions = schema.positions(schema.key)

    # -- key helpers -----------------------------------------------------------------

    def _key_of(self, row: Row) -> Optional[Tuple[Any, ...]]:
        if self._key_positions is None:
            return None
        values = row.values
        return tuple(values[p] for p in self._key_positions)

    def _index_key(self, attrs: Tuple[str, ...], row: Row) -> Any:
        if len(attrs) == 1:
            return row[attrs[0]]
        return tuple(row[name] for name in attrs)

    def _key_id(self, key: Sequence[Any]) -> Optional[int]:
        if self._key_map is None:
            raise IntegrityError(f"relation {self.name!r} has no key")
        return self._key_map.get(tuple(key))

    # -- check, then write -------------------------------------------------------------

    def _check(self, edits: List[Tuple[int, Optional[Row], Row]]) -> None:
        """Raise :class:`KeyViolationError` unless writing every
        ``(row id, old row or None, new row)`` of *edits* keeps the key
        and each unique index unique; changes nothing.

        An update sets the same values on every row it edits, so no row
        of it can take a value another row of it gives up: a new value is
        free when no stored row holds it and no earlier edit took it.
        """
        guarantees = [("key", self._key_of, self._key_map.get)] if self._key_map is not None else []
        guarantees.extend(
            (f"value of unique index {attrs}", partial(self._index_key, attrs), index.get)
            for attrs, index in self._indexes.items()
            if index.unique
        )
        for what, value_of, holder_of in guarantees:
            taken = set()
            for _, old, new in edits:
                value = value_of(new)
                moved = old is None or value_of(old) != value
                if value in taken or (moved and holder_of(value) is not None):
                    raise KeyViolationError(f"relation {self.name!r}: duplicate {what} {value!r}")
                taken.add(value)

    def _write(self, edits: List[Tuple[int, Optional[Row], Row]]) -> None:
        """Check *edits*, then store them, re-filing only the index
        entries whose value changed."""
        self._check(edits)
        key_map = self._key_map
        for row_id, old, new in edits:
            if key_map is not None and (old is None or self._key_of(old) != self._key_of(new)):
                if old is not None:
                    del key_map[self._key_of(old)]
                key_map.insert(self._key_of(new), row_id)
            for attrs, index in self._indexes.items():
                value = self._index_key(attrs, new)
                if old is not None:
                    old_value = self._index_key(attrs, old)
                    if old_value == value:
                        continue
                    index.remove(old_value, row_id)
                index.insert(value, row_id)
            self._rows[row_id] = new

    # -- mutation ----------------------------------------------------------------------

    # Each mutation is one _write (or _deletes) of (row id, old row or
    # None, new row or None) edits, which it returns: the versioned layer
    # logs exactly those, so a past version replays by row identity.

    def insert(self, value: RowLike) -> Row:
        """Insert one row; returns the stored :class:`Row`."""
        return self._inserts((value,))[0][2]

    def insert_many(self, values: Iterable[RowLike]) -> List[Row]:
        """Insert several rows; returns the stored rows.  Refused whole
        when any row would break a unique key or index."""
        return [new for _, _, new in self._inserts(values)]

    def _inserts(self, values: Iterable[RowLike]) -> List[Tuple[int, None, Row]]:
        first = self._next_id
        edits = [(first + i, None, _as_row(self.schema, v)) for i, v in enumerate(values)]
        self._write(edits)
        self._next_id += len(edits)
        return edits

    def delete_where(self, predicate: Predicate) -> int:
        """Delete every row satisfying *predicate*; returns count deleted."""
        return len(self._deletes(self._matching(predicate)))

    def delete_key(self, key: Sequence[Any]) -> bool:
        """Delete the row with the given primary-key value."""
        return bool(self._deletes(self._key_ids(key)))

    def _deletes(self, row_ids: List[int]) -> List[Tuple[int, Row, None]]:
        edits = []
        for row_id in row_ids:
            row = self._rows.pop(row_id)
            if self._key_map is not None:
                del self._key_map[self._key_of(row)]
            for attrs, index in self._indexes.items():
                index.remove(self._index_key(attrs, row), row_id)
            edits.append((row_id, row, None))
        return edits

    def update_where(self, predicate: Predicate, **changes: Any) -> int:
        """Set the given attributes on every row matching *predicate*;
        refused whole when any updated row would break a unique key or
        index."""
        return len(self._updates(self._matching(predicate), changes))

    def update_key(self, key: Sequence[Any], **changes: Any) -> bool:
        """Update the row with the given primary-key value."""
        return bool(self._updates(self._key_ids(key), changes))

    def _updates(self, row_ids: List[int], changes: Dict[str, Any]) -> List[Tuple[int, Row, Row]]:
        rows = self._rows
        edits = [(row_id, rows[row_id], rows[row_id].replace(**changes)) for row_id in row_ids]
        self._write(edits)
        return edits

    def _matching(self, predicate: Predicate) -> List[int]:
        """Ids of the rows satisfying *predicate*, collected before any
        mutation."""
        return [row_id for row_id, row in self._rows.items() if predicate.evaluate(row)]

    def _key_ids(self, key: Sequence[Any]) -> List[int]:
        row_id = self._key_id(key)
        return [] if row_id is None else [row_id]

    def clear(self) -> None:
        """Remove every row."""
        self._rows.clear()
        if self._key_map is not None:
            self._key_map.clear()
        for index in self._indexes.values():
            index.clear()

    # -- indexes -----------------------------------------------------------------------

    def create_index(
        self, attrs: Sequence[str], ordered: bool = False, unique: bool = False
    ) -> None:
        """Attach a secondary index over *attrs*.

        *ordered* selects a B+-tree (range scans, O(log) probes) over a
        hash index; *unique* additionally enforces — and advertises to the
        key-join validator — that at most one row carries each value.
        """
        for name in attrs:
            if name not in self.schema:
                raise UnknownAttributeError(f"cannot index unknown attribute {name!r}")
        key = tuple(attrs)
        if key in self._indexes:
            return
        index: Union[HashIndex, BPlusTree]
        index = BPlusTree(unique=unique) if ordered else HashIndex(unique=unique)
        for row_id, row in self._rows.items():
            index.insert(self._index_key(key, row), row_id)
        self._indexes[key] = index

    def has_index(self, attrs: Sequence[str]) -> bool:
        """Whether a secondary index over *attrs* exists."""
        return tuple(attrs) in self._indexes

    def has_unique_index(self, attrs: Sequence[str]) -> bool:
        """Whether *attrs* are covered by a uniqueness guarantee.

        True for the primary key and for any unique secondary index —
        the "at most a constant number of matches" guarantee Definition
        4.2 requires of CA-join expressions.
        """
        key = tuple(attrs)
        if self.schema.key is not None and set(self.schema.key) <= set(key):
            return True
        index = self._indexes.get(key)
        return index is not None and index.unique

    # -- lookup -------------------------------------------------------------------------

    def lookup_key(self, key: Sequence[Any]) -> Optional[Row]:
        """The row with the given primary-key value, if any."""
        row_id = self._key_id(key)
        return None if row_id is None else self._rows[row_id]

    def lookup(self, attrs: Sequence[str], value: Any) -> List[Row]:
        """Rows whose *attrs* equal *value*, via index when available.

        *value* is a scalar for single-attribute lookups, else a tuple.
        Falls back to a scan (charging ``tuple_op`` per row) without an
        index — the cost model makes the difference visible.
        """
        key = tuple(attrs)
        if self.schema.key == key and self._key_map is not None:
            row = self.lookup_key(value if isinstance(value, tuple) else (value,))
            return [row] if row is not None else []
        index = self._indexes.get(key)
        if index is not None:
            return [self._rows[row_id] for row_id in index.get_all(value)]
        matches = []
        for row in self.rows():
            GLOBAL_COUNTERS.count("tuple_op")
            if self._index_key(key, row) == value:
                matches.append(row)
        return matches

    def select(self, predicate: Predicate) -> List[Row]:
        """Rows satisfying *predicate* (always a scan)."""
        return [row for row in self.rows() if predicate.evaluate(row)]

    # -- iteration -----------------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """Iterate the rows in insertion order (an update keeps a row's
        place)."""
        return iter(self._rows.values())

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, Row):
            return False
        return any(row == value for row in self.rows())

    def to_set(self) -> frozenset:
        """The relation's rows as a frozenset (testing convenience)."""
        return frozenset(self.rows())

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {len(self._rows)} rows, schema={self.schema!r})"
