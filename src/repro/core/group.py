"""Chronicle groups: shared sequence-number domains.

"We define a chronicle group as a collection of chronicles whose sequence
numbers are drawn from the same domain, along with the requirement that
an insert into any chronicle in a chronicle group must have a sequence
number greater than the sequence number of any tuple in the chronicle
group" (Section 4).  Operations like union, difference and the
sequence-number equijoin are only permitted between chronicles of the
same group — the validator checks this structurally.

The group is also the natural place for:

* the append entry point (stamping batches, recording chronons,
  notifying maintenance listeners);
* the *watermark* that the proactive-update rule of Section 2.3 is
  policed against;
* simultaneous multi-chronicle appends sharing one sequence number
  ("multiple tuples with the same sequence number can be inserted
  simultaneously").
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ChronicleGroupError
from ..obs import runtime as obs_runtime
from ..relational.schema import Attribute, Schema
from ..relational.tuples import Row
from ..relational.types import SEQ
from .chronicle import Chronicle, RowValues
from .sequence import ChrononMapper, IdentityChronons, SequenceIssuer, SequenceNumber

#: Listener signature: one call per append event, covering every chronicle
#: touched at that sequence number: (group, {chronicle_name: stamped_rows}).
AppendListener = Callable[["ChronicleGroup", Dict[str, Tuple[Row, ...]]], None]


def chronicle_schema(
    *attrs: "Tuple[str, Any] | Attribute",
    sequence_attribute: str = "sn",
) -> Schema:
    """Build a chronicle schema: the given attributes plus the SEQ column.

    The sequencing attribute is prepended unless an attribute of that
    name is already present.
    """
    attributes: List[Attribute] = [
        a if isinstance(a, Attribute) else Attribute(a[0], a[1]) for a in attrs
    ]
    names = [a.name for a in attributes]
    if sequence_attribute not in names:
        attributes.insert(0, Attribute(sequence_attribute, SEQ))
    return Schema(attributes, sequence_attribute=sequence_attribute)


class ChronicleGroup:
    """A named collection of chronicles over one sequence-number domain."""

    def __init__(
        self,
        name: str,
        chronons: Optional[ChrononMapper] = None,
        start: SequenceNumber = 0,
    ) -> None:
        self.name = name
        self.chronicles: Dict[str, Chronicle] = {}
        self.chronons = chronons if chronons is not None else IdentityChronons()
        self._issuer = SequenceIssuer(start)
        self._listeners: List[AppendListener] = []

    # -- membership --------------------------------------------------------------

    def create_chronicle(
        self,
        name: str,
        schema: "Schema | Sequence[Tuple[str, Any]]",
        retention: Optional[int] = None,
    ) -> Chronicle:
        """Create and register a chronicle in this group.

        *schema* may be a ready chronicle :class:`Schema` or a sequence of
        ``(name, domain)`` pairs, in which case an ``sn`` SEQ column is
        added automatically.
        """
        if name in self.chronicles:
            raise ChronicleGroupError(f"group {self.name!r} already has chronicle {name!r}")
        if not isinstance(schema, Schema):
            schema = chronicle_schema(*schema)
        chronicle = Chronicle(name, schema, retention=retention)
        chronicle.group = self
        self.chronicles[name] = chronicle
        return chronicle

    def adopt(self, chronicle: Chronicle) -> Chronicle:
        """Register an externally built chronicle into this group."""
        if chronicle.name in self.chronicles:
            raise ChronicleGroupError(
                f"group {self.name!r} already has chronicle {chronicle.name!r}"
            )
        if chronicle.group is not None and chronicle.group is not self:
            raise ChronicleGroupError(
                f"chronicle {chronicle.name!r} already belongs to group "
                f"{chronicle.group.name!r}"
            )
        chronicle.group = self
        self.chronicles[chronicle.name] = chronicle
        return chronicle

    def __contains__(self, name: object) -> bool:
        return name in self.chronicles

    def __getitem__(self, name: str) -> Chronicle:
        try:
            return self.chronicles[name]
        except KeyError:
            raise ChronicleGroupError(
                f"group {self.name!r} has no chronicle {name!r}"
            ) from None

    # -- watermark ----------------------------------------------------------------

    @property
    def watermark(self) -> SequenceNumber:
        """Highest sequence number seen by the group (-1 before any)."""
        return self._issuer.watermark

    def next_sequence_number(self) -> SequenceNumber:
        """The sequence number the next append will receive (peek)."""
        return self._issuer.watermark + 1

    # -- listeners ------------------------------------------------------------------

    def subscribe(self, listener: AppendListener) -> None:
        """Register a maintenance listener called after every append."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: AppendListener) -> None:
        """Remove a previously registered listener."""
        self._listeners.remove(listener)

    # -- appends ----------------------------------------------------------------------

    def append(
        self,
        chronicle: "Chronicle | str",
        records: Union[RowValues, Sequence[RowValues]],
        sequence_number: Optional[SequenceNumber] = None,
        instant: Optional[float] = None,
    ) -> Tuple[Row, ...]:
        """Append one batch of records at a single fresh sequence number.

        *records* is one record or a list of records; all share the newly
        issued (or validated externally supplied) sequence number.
        Returns the stamped rows after notifying listeners.
        """
        resolved = self._resolve(chronicle)
        return self.append_simultaneous(
            {resolved: records},
            sequence_number=sequence_number,
            instant=instant,
        )[resolved.name]

    def append_simultaneous(
        self,
        batches: Mapping["Chronicle | str", Union[RowValues, Sequence[RowValues]]],
        sequence_number: Optional[SequenceNumber] = None,
        instant: Optional[float] = None,
    ) -> Dict[str, Tuple[Row, ...]]:
        """Append to several chronicles of the group at one sequence number.

        This is the "simultaneous insertion" of Section 4: every record in
        every batch shares the same fresh sequence number.

        When observability is installed, the whole call — admission,
        storage, and every maintenance listener — runs inside one
        ``append`` root span (see :mod:`repro.obs`), whose ``admitted``
        attribute counts the records each chronicle admitted.
        """
        obs = obs_runtime.ACTIVE
        if obs is not None:
            span = obs.tracer.start("append", group=self.name)
            try:
                span.attrs["admitted"] = admitted = {}
                stamped = self._append_impl(batches, sequence_number, instant, admitted)
                sizes = {name: len(rows) for name, rows in stamped.items() if rows}
                span.attrs["deltas"] = sizes
                if sizes:
                    first = next(rows for rows in stamped.values() if rows)
                    span.attrs["sequence"] = first[0].sequence_number
            finally:
                obs.tracer.finish(span)
            return stamped
        return self._append_impl(batches, sequence_number, instant)

    def _append_impl(
        self,
        batches: Mapping["Chronicle | str", Union[RowValues, Sequence[RowValues]]],
        sequence_number: Optional[SequenceNumber] = None,
        instant: Optional[float] = None,
        admitted: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Tuple[Row, ...]]:
        resolved: Dict[Chronicle, List[RowValues]] = {}
        for target, records in batches.items():
            chronicle = self._resolve(target)
            resolved[chronicle] = self._normalize_records(chronicle, records)
        # Every record of every chronicle is admitted against the stamp
        # the call will get before anything changes: a refused call
        # leaves stores, watermark, chronons, log and views as they were.
        stamp = self._issuer.peek(sequence_number)
        admissions = [
            (chronicle, chronicle.admit(records, stamp))
            for chronicle, records in resolved.items()
        ]
        if not any(values for _, values in admissions):
            # An empty call is no event: it spends no sequence number and
            # records no chronon, so nothing the log cannot replay moves.
            return {chronicle.name: () for chronicle, _ in admissions}
        if instant is not None:
            self.chronons.record(stamp, instant)
        self._issuer.accept(stamp)
        unchecked = Row.unchecked
        stamped: Dict[str, Tuple[Row, ...]] = {}
        for chronicle, values in admissions:
            if admitted is not None:
                admitted[chronicle.name] = len(values)
            # Records in one batch share the sequence number, so identical
            # records are the same tuple: set semantics dedups them here,
            # once — every delta built from the event relies on it.
            schema = chronicle.schema
            if len(values) > 1:
                values = dict.fromkeys(values)
            rows = tuple([unchecked(schema, row_values) for row_values in values])
            chronicle._store(rows)
            stamped[chronicle.name] = rows
        event = {name: rows for name, rows in stamped.items() if rows}
        if event:
            for listener in self._listeners:
                listener(self, event)
        return stamped

    def ingest_stamped(
        self,
        event: Mapping[str, Sequence[Row]],
        watermark: SequenceNumber,
    ) -> None:
        """Absorb already-stamped rows as **one** maintenance event.

        The sharded engine's group-commit path: rows were admitted and
        stamped elsewhere (several transaction batches, each with its own
        fresh sequence number — *watermark* is the highest), and this
        group absorbs them in one shot: the issuer advances to
        *watermark*, each chronicle stores its rows, and the listeners
        fire **once** for the union.  Coalescing is sound for every CA
        delta rule — each rule is either per-row (select/project/union),
        matches only equal *fresh* sequence numbers (SeqJoin), keys delta
        groups by fresh sequence numbers (GroupBySeq), or cancels only
        identical tuples (Difference) — so one coalesced event folds to
        the same view state as the per-batch events would.

        Sequence-number gaps below *watermark* are legal (other shards
        own the skipped numbers); *watermark* itself must still exceed
        this group's previous watermark.
        """
        obs = obs_runtime.ACTIVE
        if obs is not None:
            span = obs.tracer.start("append", group=self.name)
            try:
                self._ingest_stamped_impl(event, watermark)
                span.attrs["deltas"] = {
                    name: len(rows) for name, rows in event.items() if rows
                }
                span.attrs["sequence"] = watermark
            finally:
                obs.tracer.finish(span)
            return
        self._ingest_stamped_impl(event, watermark)

    def _ingest_stamped_impl(
        self,
        event: Mapping[str, Sequence[Row]],
        watermark: SequenceNumber,
    ) -> None:
        if watermark > self._issuer.watermark:
            self._issuer.accept(watermark)
        fired: Dict[str, Tuple[Row, ...]] = {}
        for name, rows in event.items():
            if not rows:
                continue
            rows = tuple(rows)
            self[name]._store(rows)
            fired[name] = rows
        if fired:
            for listener in self._listeners:
                listener(self, fired)

    def _resolve(self, target: "Chronicle | str") -> Chronicle:
        if isinstance(target, Chronicle):
            if target.group is not self:
                raise ChronicleGroupError(
                    f"chronicle {target.name!r} does not belong to group {self.name!r}"
                )
            return target
        return self[target]

    @staticmethod
    def _normalize_records(
        chronicle: Chronicle,
        records: Union[RowValues, Sequence[RowValues]],
    ) -> List[RowValues]:
        if isinstance(records, Mapping):
            return [records]
        records = list(records)
        if records and not isinstance(records[0], (Mapping, list, tuple, Row)):
            # A single positional record like ("alice", 3) rather than a list
            # of records.
            return [records]
        return records  # type: ignore[return-value]

    def __repr__(self) -> str:
        return (
            f"ChronicleGroup({self.name!r}, chronicles={sorted(self.chronicles)}, "
            f"watermark={self.watermark})"
        )
