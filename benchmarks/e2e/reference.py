"""Reference answers by plain dict reductions — no code shared with ``src/``.

A reference replays the same operation list the database receives, in
order (each relation update at its position, so every call joins the
relation version current at its sequence number), and answers two
questions: what must one lookup on the workload's lookup view return
right now, and what are the rows of every view.  Rows are plain tuples in
the view's output order (grouping attributes, then aggregates).

Records of one batch share a sequence number, so identical records in a
batch are one tuple (set semantics); the reference drops such duplicates
the same way the chronicle model defines them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .streams import BANDS, KINDS, UPDATE, WRITE, Op

Row = Tuple[Any, ...]
_SUM, _COUNT, _MIN, _MAX = 0, 1, 2, 3


class _Groups:
    """One GROUP BY view: SUM/COUNT/MIN/MAX of one value per key."""

    def __init__(self, outputs: Sequence[int]) -> None:
        self._outputs = tuple(outputs)
        self._state: Dict[Row, List[int]] = {}

    def add(self, key: Row, value: int) -> None:
        state = self._state.get(key)
        if state is None:
            self._state[key] = [value, 1, value, value]
            return
        state[_SUM] += value
        state[_COUNT] += 1
        if value < state[_MIN]:
            state[_MIN] = value
        if value > state[_MAX]:
            state[_MAX] = value

    def row(self, key: Row) -> Optional[Row]:
        state = self._state.get(key)
        if state is None:
            return None
        return key + tuple(state[i] for i in self._outputs)

    def rows(self) -> Dict[Row, Row]:
        outputs = self._outputs
        return {
            key: key + tuple(state[i] for i in outputs)
            for key, state in self._state.items()
        }


def _distinct(batch: Iterable[Dict[str, Any]]) -> Iterable[Dict[str, Any]]:
    seen = set()
    for record in batch:
        values = tuple(record.values())
        if values not in seen:
            seen.add(values)
            yield record


class _Reference:
    lookup_view = ""

    def __init__(self) -> None:
        self.views: Dict[str, _Groups] = {}

    def apply(self, ops: Iterable[Op]) -> int:
        """Replay *ops* in order; returns how many records were admitted."""
        records = 0
        for op in ops:
            if op[0] == WRITE:
                for batch in op[2]:
                    for record in _distinct(batch):
                        self._record(record)
                        records += 1
            elif op[0] == UPDATE:
                self._update(op[1], op[2])
        return records

    def _record(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def _update(self, key: Row, changes: Dict[str, Any]) -> None:
        raise NotImplementedError("this workload has no relation")

    def lookup(self, key: Row) -> Optional[Row]:
        return self.views[self.lookup_view].row(key)

    def rows(self) -> Dict[str, Dict[Row, Row]]:
        return {name: view.rows() for name, view in self.views.items()}


class BandedBankingReference(_Reference):
    """``balance`` plus one (kind, band) selection per view, all by acct."""

    lookup_view = "balance"

    def __init__(self) -> None:
        super().__init__()
        self.views["balance"] = _Groups((_SUM, _COUNT))
        self._bands = {
            kind: [(band, _Groups((_SUM, _COUNT))) for band in BANDS] for kind in KINDS
        }
        for kind, bands in self._bands.items():
            for index, (_, view) in enumerate(bands):
                self.views[f"v_{kind}_{index}"] = view

    def _record(self, record: Dict[str, Any]) -> None:
        key = (record["acct"],)
        cents = record["cents"]
        self.views["balance"].add(key, cents)
        for band, view in self._bands[record["kind"]]:
            if cents < band if band <= 0 else cents > band:
                view.add(key, cents)


class WideStateReference(_Reference):
    """``balance`` by acct and ``activity`` by (acct, kind)."""

    lookup_view = "balance"

    def __init__(self) -> None:
        super().__init__()
        self.views["balance"] = _Groups((_SUM, _COUNT))
        self.views["activity"] = _Groups((_SUM, _COUNT, _MIN, _MAX))

    def _record(self, record: Dict[str, Any]) -> None:
        acct, cents = record["acct"], record["cents"]
        self.views["balance"].add((acct,), cents)
        self.views["activity"].add((acct, record["kind"]), cents)


class TelecomReference(_Reference):
    """Calls joined to the subscriber version current at each call."""

    lookup_view = "usage"
    LONG_CALL_MINUTES = 30

    def __init__(self, subscriber_rows: Iterable[Dict[str, Any]]) -> None:
        super().__init__()
        self._subscribers = {
            row["number"]: {"plan": row["plan"], "state": row["state"]}
            for row in subscriber_rows
        }
        self.views["usage"] = _Groups((_SUM, _COUNT))
        self.views["plan_revenue"] = _Groups((_SUM, _COUNT))
        self.views["state_minutes"] = _Groups((_SUM,))
        self.views["long_calls"] = _Groups((_COUNT, _MAX))

    def _record(self, record: Dict[str, Any]) -> None:
        caller, minutes = record["caller"], record["minutes"]
        self.views["usage"].add((caller,), minutes)
        if minutes > self.LONG_CALL_MINUTES:
            self.views["long_calls"].add((caller,), minutes)
        subscriber = self._subscribers.get(caller)
        if subscriber is not None:
            self.views["plan_revenue"].add((subscriber["plan"],), record["cents"])
            self.views["state_minutes"].add((subscriber["state"],), minutes)

    def _update(self, key: Row, changes: Dict[str, Any]) -> None:
        subscriber = self._subscribers.get(key[0])
        if subscriber is not None:
            subscriber.update(changes)
