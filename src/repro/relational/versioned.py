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
        # (effective_from_sn, row id, old row or None, new row or None):
        # the edits of the current relation, in order.
        self._log: List[Tuple[int, int, Optional[Row], Optional[Row]]] = []
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

    def _record(self, effective: int, edits: List[Tuple[int, Any, Any]]) -> List[Any]:
        """Mark the keys of, and log, the ``(row id, old, new)`` edits one
        mutation of :attr:`current` wrote; returns them."""
        dirty = self._dirty
        if dirty is not None:
            key = self.schema.key
            for _, old, new in edits:
                for row in (old, new):
                    if row is not None:
                        dirty.add(tuple(row[name] for name in key) if key is not None else ())
        if self.keep_history:
            self._log.extend([(effective, *edit) for edit in edits])
        return edits

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
        come through a recorded mutation.  A restore the key or a unique
        index refuses changes nothing, as a refused ``insert_many``.
        """
        current = self.current
        if keys is None:
            row_ids = list(current._rows)
        else:
            row_ids = [row_id for key in keys for row_id in current._key_ids(key)]
        deleted = current._deletes(row_ids)
        try:
            inserted = current._inserts(rows)
        except BaseException:
            # The deleted rows go back, in row-id order: the order every
            # mutation keeps.
            current._write([(row_id, None, old) for row_id, old, _ in deleted])
            current._rows = dict(sorted(current._rows.items()))
            raise
        self._record(self._watermark() + 1, deleted + inserted)
        self._dirty = None

    # -- mutation (proactive) ----------------------------------------------------------

    def insert(self, value: RowLike, effective_from: Optional[int] = None) -> Row:
        """Proactively insert a row, effective for future sequence numbers."""
        effective = self._effective_from(effective_from)
        return self._record(effective, self.current._inserts((value,)))[0][2]

    def insert_many(
        self, values: Iterable[RowLike], effective_from: Optional[int] = None
    ) -> List[Row]:
        """Proactively insert several rows; refused whole when any row
        would break a unique key or index."""
        effective = self._effective_from(effective_from)
        return [new for _, _, new in self._record(effective, self.current._inserts(values))]

    def delete_key(self, key: Sequence[Any], effective_from: Optional[int] = None) -> bool:
        """Proactively delete the row with the given key."""
        effective = self._effective_from(effective_from)
        return bool(self._record(effective, self.current._deletes(self.current._key_ids(key))))

    def update_key(self, key: Sequence[Any], effective_from: Optional[int] = None, **changes: Any) -> bool:
        """Proactively update the row with the given key."""
        effective = self._effective_from(effective_from)
        edits = self.current._updates(self.current._key_ids(key), changes)
        return bool(self._record(effective, edits))

    def update_where(self, predicate: Predicate, effective_from: Optional[int] = None, **changes: Any) -> int:
        """Proactively update every row matching *predicate*."""
        effective = self._effective_from(effective_from)
        edits = self.current._updates(self.current._matching(predicate), changes)
        return len(self._record(effective, edits))

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

        Replays the logged edits from empty by row id, so a keyless
        relation's rows and every relation's row order come back as they
        were; intended for audit queries and tests, never for the
        maintenance path (which only ever needs the current version
        thanks to the proactive rule).
        """
        if not self.keep_history:
            raise RetroactiveUpdateError(
                f"relation {self.name!r} keeps no history; as-of queries unavailable"
            )
        snapshot = Relation(f"{self.name}@{sequence_number}", self.schema)
        for effective, row_id, old, new in self._log:
            if effective > sequence_number:
                break
            if new is None:
                snapshot._deletes([row_id])
            else:
                snapshot._write([(row_id, old, new)])
        snapshot._next_id = self.current._next_id
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
