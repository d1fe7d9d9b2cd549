"""Chronicles: unbounded, append-only sequences of transaction records.

A chronicle is "similar to a relation, except that a chronicle is a
sequence, rather than an unordered set, of tuples … The only update
permissible to a chronicle is an insertion of tuples, with the sequence
number of the inserted tuples being greater than any existing sequence
number" (Section 2.1).  Chronicles can be very large and *the entire
chronicle may not be stored*; accordingly a :class:`Chronicle` has a
retention policy:

* ``retention=None`` — store everything (testing/oracle use);
* ``retention=0``    — store nothing (a pure stream);
* ``retention=n``    — keep only the latest *n* tuples (the paper's
  "latest time window").

The **no-access rule** of Theorems 4.2/4.4 — incremental maintenance may
not read the chronicle — is enforced mechanically: while the maintenance
guard (:func:`maintenance_guard`) is active, every read method raises
:class:`~repro.errors.ChronicleAccessError`.  Tests run whole workloads
with ``retention=0`` to prove maintenance never needed the store.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Iterator, List, Mapping, Optional, Sequence, Union

from ..complexity.counters import GLOBAL_COUNTERS
from ..obs import runtime as obs_runtime
from ..errors import (
    ChronicleAccessError,
    RetentionError,
    SchemaError,
    UnknownAttributeError,
)
from ..relational.schema import Schema
from ..relational.tuples import Row
from .sequence import SequenceNumber

RowValues = Union[Mapping[str, Any], Sequence[Any]]

class _MaintenanceDepth(threading.local):
    """Depth of nested maintenance sections active on the current thread.

    Thread-local: the guard marks a *dynamic extent*, and with the sharded
    engine several worker threads maintain views concurrently — each
    worker's guard must cover its own maintenance only (an unguarded
    reader thread may read freely while another thread maintains).  A
    module-global counter would also corrupt under concurrent non-atomic
    +=/-=.
    """

    depth = 0


_MAINTENANCE = _MaintenanceDepth()


class maintenance_guard:
    """Mark a dynamic extent as incremental-maintenance code.

    While active, any chronicle read *on this thread* raises
    :class:`~repro.errors.ChronicleAccessError` — the mechanical proof
    that maintenance ran without chronicle access.

    A plain slotted class: the guard is entered twice per maintained view
    per event, and a ``@contextmanager`` generator would allocate a
    generator and its wrapper on every entry.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        _MAINTENANCE.depth += 1

    def __exit__(self, *exc_info: object) -> None:
        _MAINTENANCE.depth -= 1


def in_maintenance() -> bool:
    """Whether maintenance code is executing on the current thread."""
    return _MAINTENANCE.depth > 0


class Chronicle:
    """An append-only sequence of records with bounded retention.

    Chronicles are created through
    :meth:`repro.core.group.ChronicleGroup.create_chronicle`, which wires
    the shared sequence-number domain; direct construction is available
    for tests.

    Parameters
    ----------
    name:
        Chronicle name.
    schema:
        A chronicle schema (must declare a sequencing attribute).  Pass a
        plain relation schema together with *sequence_attribute* to have
        the SEQ column added implicitly.
    retention:
        See module docstring.
    """

    __slots__ = ("name", "schema", "retention", "_stored", "_appended", "_seq_position", "group")

    def __init__(
        self,
        name: str,
        schema: Schema,
        retention: Optional[int] = None,
    ) -> None:
        if not schema.is_chronicle_schema:
            raise SchemaError(
                f"chronicle {name!r} requires a schema with a sequencing attribute"
            )
        if retention is not None and retention < 0:
            raise ValueError("retention must be None or >= 0")
        self.name = name
        self.schema = schema
        self.retention = retention
        self._stored: Deque[Row] = deque()
        self._appended = 0  # lifetime count, independent of retention
        self._seq_position = schema.position(schema.sequence_attribute)
        #: Back-reference set by the owning group.
        self.group = None

    # -- append path -------------------------------------------------------------

    def _admit(self, values: RowValues, sequence_number: SequenceNumber) -> Row:
        """Validate one record and stamp it with *sequence_number*.

        Accepts mappings or positional sequences that either include or
        omit the sequencing attribute; an included value must match the
        stamp (records cannot choose their own sequence numbers).
        """
        seq_name = self.schema.sequence_attribute
        if isinstance(values, Mapping):
            payload = dict(values)
            supplied = payload.get(seq_name)
            if supplied is not None and supplied != sequence_number:
                raise SchemaError(
                    f"record supplies sequence number {supplied}, but the "
                    f"group stamped {sequence_number}"
                )
            payload[seq_name] = sequence_number
            return Row.from_mapping(self.schema, payload)
        values = list(values)
        if len(values) == len(self.schema) - 1:
            values.insert(self._seq_position, sequence_number)
        elif len(values) == len(self.schema):
            supplied = values[self._seq_position]
            if supplied is not None and supplied != sequence_number:
                raise SchemaError(
                    f"record supplies sequence number {supplied}, but the "
                    f"group stamped {sequence_number}"
                )
            values[self._seq_position] = sequence_number
        return Row(self.schema, values)

    def _admit_batch(
        self, records: Sequence[RowValues], sequence_number: SequenceNumber
    ) -> List[Row]:
        """Validate and stamp a whole batch in one pass (fast path).

        Semantically identical to calling :meth:`_admit` per record, but
        the per-record overhead is gone: the schema's cached name set
        replaces per-row set construction, values run through exactly one
        ``check_values`` pass, and rows are built with the unchecked
        constructor from the already-validated tuples.
        """
        schema = self.schema
        seq_name = schema.sequence_attribute
        seq_position = self._seq_position
        names = schema.names
        names_set = schema.names_set
        arity = len(names)
        check_values = schema.check_values
        unchecked = Row.unchecked
        rows: List[Row] = []
        for record in records:
            if isinstance(record, Mapping):
                supplied = record.get(seq_name)
                if supplied is not None and supplied != sequence_number:
                    raise SchemaError(
                        f"record supplies sequence number {supplied}, but the "
                        f"group stamped {sequence_number}"
                    )
                if len(record) > arity or (
                    len(record) == arity and seq_name not in record
                ):
                    self._reject_unknown(record, names_set)
                try:
                    values = [
                        sequence_number if name == seq_name else record[name]
                        for name in names
                    ]
                except KeyError:
                    self._reject_unknown(record, names_set)
                    raise  # unreachable: _reject_unknown raised
            else:
                values = list(record)
                if len(values) == arity - 1:
                    values.insert(seq_position, sequence_number)
                elif len(values) == arity:
                    supplied = values[seq_position]
                    if supplied is not None and supplied != sequence_number:
                        raise SchemaError(
                            f"record supplies sequence number {supplied}, but "
                            f"the group stamped {sequence_number}"
                        )
                    values[seq_position] = sequence_number
            rows.append(unchecked(schema, check_values(values)))
        obs = obs_runtime.ACTIVE
        if obs is not None:
            obs.metrics.inc(
                "chronicle_records_admitted_total", len(rows), chronicle=self.name
            )
        return rows

    @staticmethod
    def _reject_unknown(record: Mapping[str, Any], names_set: "frozenset") -> None:
        """Raise the precise admit error for a malformed mapping record."""
        extra = [name for name in record if name not in names_set]
        if extra:
            raise UnknownAttributeError(
                f"values supplied for unknown attributes {sorted(extra)}"
            )
        missing = [name for name in names_set if name not in record]
        raise SchemaError(f"missing value for attribute {sorted(missing)[0]!r}")

    def _store(self, rows: Sequence[Row]) -> None:
        """Retain *rows* according to the retention policy."""
        self._appended += len(rows)
        obs = obs_runtime.ACTIVE
        if self.retention != 0:
            self._stored.extend(rows)
            if self.retention is not None:
                while len(self._stored) > self.retention:
                    self._stored.popleft()
        if obs is not None:
            metrics = obs.metrics
            metrics.inc("chronicle_appends_total", len(rows), chronicle=self.name)
            metrics.set("chronicle_stored_rows", len(self._stored), chronicle=self.name)

    # -- reads (guarded) ------------------------------------------------------------

    def _check_readable(self) -> None:
        if in_maintenance():
            raise ChronicleAccessError(
                f"chronicle {self.name!r} was read during incremental view "
                f"maintenance; Theorems 4.2/4.4 forbid chronicle access on "
                f"the maintenance path"
            )

    def rows(self) -> Iterator[Row]:
        """Iterate the *stored* window in sequence order (guarded)."""
        self._check_readable()
        for row in self._stored:
            GLOBAL_COUNTERS.count("chronicle_read")
            yield row

    def window(self, low: Optional[int] = None, high: Optional[int] = None) -> List[Row]:
        """Stored rows with sequence numbers in ``[low, high]`` (guarded).

        Raises :class:`RetentionError` when the requested range starts
        before the retained window.
        """
        self._check_readable()
        if self.retention == 0 and (low is not None or high is not None or self._appended):
            raise RetentionError(
                f"chronicle {self.name!r} stores nothing (retention=0)"
            )
        if low is not None and self._stored:
            oldest = self._stored[0].values[self._seq_position]
            if low < oldest and self._appended > len(self._stored):
                raise RetentionError(
                    f"chronicle {self.name!r}: sequence {low} precedes the "
                    f"retained window starting at {oldest}"
                )
        rows = []
        for row in self._stored:
            GLOBAL_COUNTERS.count("chronicle_read")
            sn = row.values[self._seq_position]
            if low is not None and sn < low:
                continue
            if high is not None and sn > high:
                break
            rows.append(row)
        return rows

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __len__(self) -> int:
        """Number of *stored* rows (see :attr:`appended_count`)."""
        self._check_readable()
        return len(self._stored)

    @property
    def appended_count(self) -> int:
        """Lifetime number of appended rows (unaffected by retention)."""
        return self._appended

    @property
    def sequence_attribute(self) -> str:
        return self.schema.sequence_attribute

    def last_sequence_number(self) -> Optional[SequenceNumber]:
        """Highest stored sequence number, or ``None`` (guarded read)."""
        self._check_readable()
        if not self._stored:
            return None
        return self._stored[-1].values[self._seq_position]

    def __repr__(self) -> str:
        keep = "all" if self.retention is None else self.retention
        return (
            f"Chronicle({self.name!r}, stored={len(self._stored)}, "
            f"appended={self._appended}, retention={keep})"
        )
