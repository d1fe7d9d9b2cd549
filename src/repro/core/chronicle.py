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
from collections.abc import Mapping
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..complexity.counters import GLOBAL_COUNTERS
from ..errors import (
    ChronicleAccessError,
    RetentionError,
    SchemaError,
    UnknownAttributeError,
)
from ..relational.schema import Schema
from ..relational.tuples import Row
from ..relational.types import BOOL, FLOAT, INT, SEQ, STR, Domain
from .sequence import SequenceNumber

RowValues = Union[Mapping[str, Any], Sequence[Any]]

class _MaintenanceDepth(threading.local):
    """Depth of nested maintenance sections active on the current thread.

    Thread-local: the guard marks a *dynamic extent* of the thread that
    maintains, so an unguarded reader thread may read a chronicle freely
    while another thread maintains.
    """

    depth = 0


_MAINTENANCE = _MaintenanceDepth()


class maintenance_guard:
    """Mark a dynamic extent as incremental-maintenance code.

    While active, any chronicle read *on this thread* raises
    :class:`~repro.errors.ChronicleAccessError` — the mechanical proof
    that maintenance ran without chronicle access.

    A plain slotted class, entered once per maintained event (around the
    registry's routing and the plan and fold of every view the event
    reaches), where a
    ``@contextmanager`` generator would allocate a generator and its
    wrapper on every entry.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        _MAINTENANCE.depth += 1

    def __exit__(self, *exc_info: object) -> None:
        _MAINTENANCE.depth -= 1


def in_maintenance() -> bool:
    """Whether maintenance code is executing on the current thread."""
    return _MAINTENANCE.depth > 0


#: A compiled admission step: ``(records, stamp) -> stamped value tuples``.
Admission = Callable[[Sequence[RowValues], SequenceNumber], List[Tuple[Any, ...]]]

#: The one Python type each domain's well-formed values have.  Any other
#: value — an ``int`` for FLOAT, a ``bool`` for INT, a ``str`` subclass,
#: ``None`` — is the per-attribute path's to coerce or refuse.
EXACT_TYPES: Dict[Domain, type] = {INT: int, FLOAT: float, STR: str, BOOL: bool, SEQ: int}


def compile_admission(schema: Schema) -> Admission:
    """Compile *schema*'s admission step, once per chronicle.

    The step validates a batch of records and stamps each with the
    batch's sequence number, returning one value tuple per record in
    schema order.  Records are mappings, or positional sequences that
    include or omit the sequencing attribute; an included sequence
    number must match the stamp (records cannot choose their own).

    The normal record — a ``dict``, ``tuple`` or ``list`` holding exactly
    the payload attributes, each of its domain's exact type — costs one
    C-level extraction (an ``itemgetter`` over the payload names) and one
    compare of its value types with a precomputed tuple.  Every other
    record goes through ``Attribute.check`` per attribute, which coerces
    what the domain admits and raises the typed error otherwise; both
    paths give the same tuple for the same record.
    """
    seq_name = schema.sequence_attribute
    seq_position = schema.position(seq_name)
    names = schema.names
    names_set = schema.names_set
    attributes = schema.attributes
    arity = len(names)
    payload = names[:seq_position] + names[seq_position + 1 :]
    width = len(payload)
    expected = tuple(EXACT_TYPES.get(schema.attribute(name).domain) for name in payload)
    if width == 1:
        only = payload[0]

        def pick(record: Mapping[str, Any]) -> Tuple[Any, ...]:
            return (record[only],)

    elif width:
        pick = itemgetter(*payload)
    else:

        def pick(record: Mapping[str, Any]) -> Tuple[Any, ...]:
            return ()

    def foreign(supplied: Any, stamp: SequenceNumber) -> SchemaError:
        return SchemaError(
            f"record supplies sequence number {supplied}, but the "
            f"group stamped {stamp}"
        )

    def malformed(record: Mapping[str, Any]) -> SchemaError:
        """The precise error for a mapping with the wrong keys."""
        extra = [name for name in record if name not in names_set]
        if extra:
            return UnknownAttributeError(
                f"values supplied for unknown attributes {sorted(extra)}"
            )
        missing = [name for name in names_set if name not in record]
        return SchemaError(f"missing value for attribute {sorted(missing)[0]!r}")

    def checked(record: RowValues, stamp: SequenceNumber) -> Tuple[Any, ...]:
        """Any record, one attribute at a time."""
        if isinstance(record, Mapping):
            supplied = record.get(seq_name)
            if supplied is not None and supplied != stamp:
                raise foreign(supplied, stamp)
            if len(record) > arity or (len(record) == arity and seq_name not in record):
                raise malformed(record)
            try:
                values = [stamp if name == seq_name else record[name] for name in names]
            except KeyError:
                raise malformed(record) from None
        else:
            values = list(record)
            if len(values) == arity - 1:
                values.insert(seq_position, stamp)
            elif len(values) == arity:
                supplied = values[seq_position]
                if supplied is not None and supplied != stamp:
                    raise foreign(supplied, stamp)
                values[seq_position] = stamp
            else:
                raise SchemaError(f"expected {arity} values, got {len(values)}")
        return tuple(attribute.check(value) for attribute, value in zip(attributes, values))

    def admit(records: Sequence[RowValues], stamp: SequenceNumber) -> List[Tuple[Any, ...]]:
        head = (stamp,)
        out: List[Tuple[Any, ...]] = []
        for record in records:
            kind = type(record)
            values = None
            if kind is dict:
                if len(record) == width:
                    try:
                        values = pick(record)
                    except KeyError:
                        pass
            elif kind is tuple or kind is list:
                values = tuple(record)  # the type compare checks the width
            if values is not None and tuple(map(type, values)) == expected:
                if seq_position:
                    out.append(values[:seq_position] + head + values[seq_position:])
                else:
                    out.append(head + values)
            else:
                out.append(checked(record, stamp))
        return out

    return admit


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

    __slots__ = (
        "name", "schema", "retention", "_stored", "_appended", "_seq_position", "group", "admit"
    )

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
        #: The schema's compiled admission step (:func:`compile_admission`).
        self.admit: Admission = compile_admission(schema)

    # -- append path -------------------------------------------------------------

    def _store(self, rows: Sequence[Row]) -> None:
        """Retain *rows* according to the retention policy."""
        self._appended += len(rows)
        if self.retention != 0:
            self._stored.extend(rows)
            if self.retention is not None:
                while len(self._stored) > self.retention:
                    self._stored.popleft()

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
    def stored_count(self) -> int:
        """Number of *stored* rows — a size, not a read, so unguarded.

        What the ``chronicle_stored_rows`` gauge reads, from whatever
        thread scrapes it (:meth:`repro.obs.core.Observability.collect`).
        """
        return len(self._stored)

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
