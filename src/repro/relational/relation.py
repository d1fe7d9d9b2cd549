"""Mutable relations with key enforcement and secondary indexes.

Relations in the chronicle model are ordinary relations (Section 2.1):
fully stored, updatable (insert/delete/modify), and joined with chronicles
through the implicit temporal join.  This module provides the storage-and-
index layer; temporal versioning is layered on in
:mod:`repro.relational.versioned`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..complexity.counters import GLOBAL_COUNTERS
from ..errors import IntegrityError, KeyViolationError, UnknownAttributeError
from ..storage.btree import BPlusTree
from ..storage.hash_index import HashIndex
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

    Rows are kept in insertion order in a slot list; deletion leaves
    tombstones that are skipped on scan and compacted opportunistically.
    A unique index enforces the schema's key; additional secondary indexes
    (hash or B+-tree) can be attached per attribute list.

    Parameters
    ----------
    name:
        Relation name (used in error messages and the database catalog).
    schema:
        The relation's schema.  When the schema declares a key, a unique
        hash index over it is created automatically.
    """

    __slots__ = (
        "name",
        "schema",
        "_slots",
        "_count",
        "_key_index",
        "_key_positions",
        "_indexes",
        "_tombstones",
    )

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._slots: List[Optional[Row]] = []
        self._count = 0
        self._tombstones = 0
        self._indexes: Dict[Tuple[str, ...], Union[HashIndex, BPlusTree]] = {}
        self._key_index: Optional[HashIndex] = None
        self._key_positions: Optional[Tuple[int, ...]] = None
        if schema.key is not None:
            self._key_index = HashIndex(unique=True)
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

    # -- mutation ----------------------------------------------------------------------

    def insert(self, value: RowLike) -> Row:
        """Insert one row; returns the stored :class:`Row`."""
        row = _as_row(self.schema, value)
        key = self._key_of(row)
        if self._key_index is not None:
            if self._key_index.contains(key):
                raise KeyViolationError(
                    f"relation {self.name!r}: duplicate key {key!r}"
                )
        self.insert_at_key(key, row)
        return row

    def insert_many(self, values: Iterable[RowLike]) -> List[Row]:
        """Insert several rows; returns the stored rows."""
        return [self.insert(value) for value in values]

    def delete_where(self, predicate: Predicate) -> int:
        """Delete every row satisfying *predicate*; returns count deleted."""
        deleted = 0
        for slot, row in enumerate(self._slots):
            if row is not None and predicate.evaluate(row):
                self._delete_slot(slot)
                deleted += 1
        self._maybe_compact()
        return deleted

    def delete_key(self, key: Sequence[Any]) -> bool:
        """Delete the row with the given primary-key value."""
        if self._key_index is None:
            raise IntegrityError(f"relation {self.name!r} has no key")
        slot = self._key_index.get(tuple(key))
        if slot is None:
            return False
        self._delete_slot(slot)
        self._maybe_compact()
        return True

    def _delete_slot(self, slot: int) -> None:
        row = self._slots[slot]
        if row is None:
            return
        self._slots[slot] = None
        self._count -= 1
        self._tombstones += 1
        if self._key_index is not None:
            self._key_index.remove(self._key_of(row))
        for attrs, index in self._indexes.items():
            index.remove(self._index_key(attrs, row), slot)

    def _maybe_compact(self) -> None:
        if self._tombstones <= max(32, self._count):
            return
        live = [row for row in self._slots if row is not None]
        self._slots = []
        self._count = 0
        self._tombstones = 0
        if self._key_index is not None:
            self._key_index.clear()
        for index in self._indexes.values():
            index.clear()
        for row in live:
            self.insert(row)

    def update_where(self, predicate: Predicate, **changes: Any) -> int:
        """Set the given attributes on every row matching *predicate*."""
        updated = 0
        for slot, row in enumerate(self._slots):
            if row is not None and predicate.evaluate(row):
                self._replace_slot(slot, row.replace(**changes))
                updated += 1
        return updated

    def update_key(self, key: Sequence[Any], **changes: Any) -> bool:
        """Update the row with the given primary-key value."""
        if self._key_index is None:
            raise IntegrityError(f"relation {self.name!r} has no key")
        slot = self._key_index.get(tuple(key))
        if slot is None:
            return False
        row = self._slots[slot]
        assert row is not None
        self._replace_slot(slot, row.replace(**changes))
        return True

    def insert_at_key(self, key: Optional[Tuple[Any, ...]], row: Row) -> int:
        """Trusted insert; returns the slot the row was stored in.

        The caller guarantees what :meth:`insert` checks: *row* is a
        :class:`Row` of this schema, *key* is its key (``None`` for a
        keyless relation) and no stored row carries it — on the
        persistent-view fold path the view's state index has just said
        so.  The returned slot stays valid until a delete compacts the
        relation or :meth:`clear` empties it, and is the very ``int`` the
        key index holds, so remembering it costs the caller one pointer.
        """
        slot = len(self._slots)
        self._slots.append(row)
        self._count += 1
        if self._key_index is not None:
            self._key_index.insert(key, slot)
        for attrs, index in self._indexes.items():
            index.insert(self._index_key(attrs, row), slot)
        return slot

    def replace_at(self, slot: int, row: Row) -> None:
        """Trusted swap of the row in *slot* for one carrying the same key.

        The other half of :meth:`insert_at_key`: no key probe and no key
        re-derivation — the caller located the row once, through its own
        index, and kept the slot.
        """
        if self._indexes:
            self._replace_slot(slot, row)
        else:
            self._slots[slot] = row

    def _replace_slot(self, slot: int, new_row: Row) -> None:
        old_row = self._slots[slot]
        assert old_row is not None
        new_key = self._key_of(new_row)
        old_key = self._key_of(old_row)
        if self._key_index is not None and new_key != old_key:
            existing = self._key_index.get(new_key)
            if existing is not None and existing != slot:
                raise KeyViolationError(
                    f"relation {self.name!r}: update duplicates key {new_key!r}"
                )
            self._key_index.remove(old_key)
            self._key_index.insert(new_key, slot)
        for attrs, index in self._indexes.items():
            old_value = self._index_key(attrs, old_row)
            new_value = self._index_key(attrs, new_row)
            if old_value != new_value:
                index.remove(old_value, slot)
                index.insert(new_value, slot)
        self._slots[slot] = new_row

    def clear(self) -> None:
        """Remove every row."""
        self._slots = []
        self._count = 0
        self._tombstones = 0
        if self._key_index is not None:
            self._key_index.clear()
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
        for slot, row in enumerate(self._slots):
            if row is not None:
                index.insert(self._index_key(key, row), slot)
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
        if self._key_index is None:
            raise IntegrityError(f"relation {self.name!r} has no key")
        slot = self._key_index.get(tuple(key))
        if slot is None:
            return None
        return self._slots[slot]

    def lookup(self, attrs: Sequence[str], value: Any) -> List[Row]:
        """Rows whose *attrs* equal *value*, via index when available.

        *value* is a scalar for single-attribute lookups, else a tuple.
        Falls back to a scan (charging ``tuple_op`` per row) without an
        index — the cost model makes the difference visible.
        """
        key = tuple(attrs)
        if self.schema.key == key and self._key_index is not None:
            row = self.lookup_key(value if isinstance(value, tuple) else (value,))
            return [row] if row is not None else []
        index = self._indexes.get(key)
        if index is not None:
            rows = []
            for slot in index.get_all(value):
                row = self._slots[slot]
                if row is not None:
                    rows.append(row)
            return rows
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
        """Iterate live rows in insertion order."""
        for row in self._slots:
            if row is not None:
                yield row

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __len__(self) -> int:
        return self._count

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, Row):
            return False
        return any(row == value for row in self.rows())

    def to_set(self) -> frozenset:
        """The relation's rows as a frozenset (testing convenience)."""
        return frozenset(self.rows())

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self._count} rows, schema={self.schema!r})"
