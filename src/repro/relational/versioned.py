"""Temporally versioned relations and the proactive-update rule.

Section 2.3 of the paper: each relation conceptually has one temporal
version per update, and any chronicle–relation join is an implicit
temporal join — a chronicle tuple with sequence number *s* joins the
version of the relation associated with *s*.  Updates must be
*proactive*: they may only affect versions for sequence numbers not yet
seen, because retroactive updates would require reprocessing chronicle
history that may no longer be stored.

:class:`VersionedRelation` wraps a current :class:`~.relation.Relation`
and

* polices proactivity against a *watermark* (the highest sequence number
  the owning chronicle group has issued);
* optionally records an operation log so tests and audit queries can
  reconstruct the version ``as_of`` any sequence number — the paper notes
  versions "do not need to be stored" for maintenance, and indeed the
  maintenance path never reads the log.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import RetroactiveUpdateError
from .predicate import Predicate
from .relation import Relation, RowLike
from .schema import Schema
from .tuples import Row

#: Operation kinds recorded in the version log.
_INSERT, _DELETE, _UPDATE = "insert", "delete", "update"


class VersionedRelation:
    """A relation with proactive-update enforcement and optional history.

    Parameters
    ----------
    name, schema:
        Passed through to the underlying :class:`Relation`.
    watermark:
        Zero-argument callable returning the highest sequence number seen
        so far by the owning chronicle group (``-1`` before any append).
        Updates are proactive exactly when they take effect strictly
        after this watermark.
    keep_history:
        Record an operation log enabling :meth:`as_of` reconstruction.
    """

    __slots__ = ("current", "_watermark", "keep_history", "_log", "_dirty")

    def __init__(
        self,
        name: str,
        schema: Schema,
        watermark: Optional[Callable[[], int]] = None,
        keep_history: bool = True,
    ) -> None:
        self.current = Relation(name, schema)
        self._watermark = watermark if watermark is not None else (lambda: -1)
        self.keep_history = keep_history
        # (effective_from_sn, op, payload) — payload depends on op
        self._log: List[Tuple[int, str, Any]] = []
        # Keys of the rows changed since the last take_dirty(); None (the
        # default) records nothing.  A keyless relation records ().
        self._dirty: Optional[Set[Tuple[Any, ...]]] = None

    # -- identity passthrough -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.current.name

    @property
    def schema(self) -> Schema:
        return self.current.schema

    def bind_watermark(self, watermark: Callable[[], int]) -> None:
        """Re-bind the proactivity watermark (used by database wiring)."""
        self._watermark = watermark

    def _effective_from(self, effective_from: Optional[int]) -> int:
        """Resolve and police the effective-from sequence number."""
        floor = self._watermark() + 1
        if effective_from is None:
            return floor
        if effective_from < floor:
            raise RetroactiveUpdateError(
                f"relation {self.name!r}: update effective from sequence "
                f"{effective_from} would be retroactive (watermark "
                f"{floor - 1}); the chronicle model permits only proactive "
                f"updates"
            )
        return effective_from

    # -- dirty keys (delta snapshots) ---------------------------------------------------

    def record_dirty(self) -> None:
        """Start recording the keys of rows inserted, deleted or updated."""
        self._dirty = set()

    def take_dirty(self) -> Optional[Set[Tuple[Any, ...]]]:
        """Keys changed since the last call (after :meth:`record_dirty`);
        None when not recording.  A keyless relation reports ``()`` for
        any change — only its whole row set can describe it."""
        dirty = self._dirty
        if dirty is not None:
            self._dirty = set()
        return dirty

    def _mark(self, row: Optional[Row]) -> None:
        if self._dirty is not None and row is not None:
            key = self.schema.key
            self._dirty.add(tuple(row[name] for name in key) if key is not None else ())

    # -- restore (checkpoints) ---------------------------------------------------------

    def restore_rows(
        self, rows: Iterable[RowLike], keys: Optional[Sequence[Sequence[Any]]] = None
    ) -> None:
        """Install rows restored from a checkpoint or snapshot.

        Without *keys* they replace every row (a base); with *keys* they
        replace the rows of those keys only (a delta — a key with no row
        among *rows* was deleted).  The history records the change as a
        version effective from the next sequence number, so earlier
        versions stay reconstructible and later chronicle tuples join
        the restored one.  Dirty-key recording stops: the change did not
        come through a recorded mutation.
        """
        effective = self._watermark() + 1
        if keys is None:
            old = list(self.current.rows())
            self.current.clear()
        else:
            old = [row for row in map(self.current.lookup_key, keys) if row is not None]
            for key in keys:
                self.current.delete_key(key)
        new = [self.current.insert(value) for value in rows]
        if self.keep_history:
            self._log.extend((effective, _DELETE, row) for row in old)
            self._log.extend((effective, _INSERT, row) for row in new)
        self._dirty = None

    # -- mutation (proactive) ----------------------------------------------------------

    def insert(self, value: RowLike, effective_from: Optional[int] = None) -> Row:
        """Proactively insert a row, effective for future sequence numbers."""
        effective = self._effective_from(effective_from)
        row = self.current.insert(value)
        self._mark(row)
        if self.keep_history:
            self._log.append((effective, _INSERT, row))
        return row

    def insert_many(self, values: Sequence[RowLike], effective_from: Optional[int] = None) -> List[Row]:
        """Proactively insert several rows."""
        return [self.insert(value, effective_from) for value in values]

    def delete_key(self, key: Sequence[Any], effective_from: Optional[int] = None) -> bool:
        """Proactively delete the row with the given key."""
        effective = self._effective_from(effective_from)
        row = self.current.lookup_key(key)
        deleted = self.current.delete_key(key)
        if deleted:
            self._mark(row)
            if self.keep_history:
                self._log.append((effective, _DELETE, row))
        return deleted

    def update_key(self, key: Sequence[Any], effective_from: Optional[int] = None, **changes: Any) -> bool:
        """Proactively update the row with the given key."""
        effective = self._effective_from(effective_from)
        before = self.current.lookup_key(key)
        if before is None:
            return False
        updated = self.current.update_key(key, **changes)
        if updated:
            after = self.current.lookup_key(
                tuple(changes.get(name, before[name]) for name in self.schema.key)
            )
            self._mark(before)
            self._mark(after)
            if self.keep_history:
                self._log.append((effective, _UPDATE, (before, after)))
        return updated

    def update_where(self, predicate: Predicate, effective_from: Optional[int] = None, **changes: Any) -> int:
        """Proactively update every row matching *predicate*."""
        effective = self._effective_from(effective_from)
        touched = [row for row in self.current.rows() if predicate.evaluate(row)]
        count = self.current.update_where(predicate, **changes)
        for before in touched:
            after = before.replace(**changes)
            self._mark(before)
            self._mark(after)
            if self.keep_history:
                self._log.append((effective, _UPDATE, (before, after)))
        return count

    # -- temporal read ------------------------------------------------------------------

    def version_for(self, sequence_number: int) -> Relation:
        """The relation version a chronicle tuple at *sequence_number* joins.

        For sequence numbers at or past every logged update this is the
        current relation (no copy); older sequence numbers trigger an
        :meth:`as_of` reconstruction (history must be enabled).
        """
        if not self._log or sequence_number >= self._log[-1][0]:
            return self.current
        return self.as_of(sequence_number)

    def as_of(self, sequence_number: int) -> Relation:
        """Reconstruct the relation version at *sequence_number*.

        Replays the operation log from empty; intended for audit queries
        and tests, never for the maintenance path (which only ever needs
        the current version thanks to the proactive rule).
        """
        if not self.keep_history:
            raise RetroactiveUpdateError(
                f"relation {self.name!r} keeps no history; as-of queries unavailable"
            )
        snapshot = Relation(f"{self.name}@{sequence_number}", self.schema)
        for effective, op, payload in self._log:
            if effective > sequence_number:
                break
            if op == _INSERT:
                snapshot.insert(payload)
            elif op == _DELETE:
                if payload is not None and self.schema.key is not None:
                    snapshot.delete_key(tuple(payload[name] for name in self.schema.key))
            else:  # update
                before, after = payload
                if self.schema.key is not None:
                    snapshot.delete_key(tuple(before[name] for name in self.schema.key))
                snapshot.insert(after)
        return snapshot

    # -- passthrough reads ----------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        return self.current.rows()

    def lookup_key(self, key: Sequence[Any]) -> Optional[Row]:
        return self.current.lookup_key(key)

    def lookup(self, attrs: Sequence[str], value: Any) -> List[Row]:
        return self.current.lookup(attrs, value)

    def create_index(
        self, attrs: Sequence[str], ordered: bool = False, unique: bool = False
    ) -> None:
        self.current.create_index(attrs, ordered, unique)

    def has_unique_index(self, attrs: Sequence[str]) -> bool:
        return self.current.has_unique_index(attrs)

    def __iter__(self) -> Iterator[Row]:
        return self.current.rows()

    def __len__(self) -> int:
        return len(self.current)

    def __repr__(self) -> str:
        return (
            f"VersionedRelation({self.name!r}, {len(self.current)} rows, "
            f"{len(self._log)} logged ops)"
        )
