"""Periodic persistent views: V⟨D⟩ (Section 5.1).

Given a summary view definition V and a calendar D, the periodic view
V⟨D⟩ specifies one view V_i per interval i of D: V with an extra
selection restricting chronicle tuples to the interval (under the mapping
from sequence numbers to chronons).  A :class:`PeriodicViewSet`
implements this with:

* **lazy instantiation** — V_i is materialized only once a tuple (or an
  explicit request) touches interval i, so infinite calendars are fine;
* **active-set maintenance** — only views whose interval could still
  receive tuples are maintained ("start maintaining a view as soon as its
  time interval starts, and stop … as soon as its interval ends");
* **expiration** — a view is dropped ``expire_after`` chronons past its
  interval's end, allowing the system to "implement an infinite number of
  periodic views, provided only a finite number of them are current".

The :class:`~repro.views.registry.ViewRegistry` maintains a set like a
view, inside the event's no-access extent, and expires it after.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..algebra.plan import standalone_plan
from ..core.delta import Delta
from ..errors import ViewExpiredError
from ..relational.tuples import Row
from ..sca.summarize import Summary
from ..sca.view import PersistentView

#: Maps a base-chronicle row to its chronon.
ChrononOf = Callable[[Row], float]


class PeriodicViewSet:
    """The family of views V_i induced by a summary and a calendar.

    Parameters
    ----------
    name:
        Family name; interval views are named ``name[i]``.
    summary:
        The SCA summary template V.  Interval views share the (stateless)
        summary, expression and compiled plan; each holds its own
        materialized state.
    calendar:
        The calendar D.
    chronon_of:
        Row → chronon mapping used to place base-chronicle tuples into
        intervals.  Registration defaults it to the owning group's chronon
        mapper applied to the row's sequence number, per Section 5.1 ("a
        mapping from sequence numbers in a chronicle to time intervals").
    expire_after:
        Chronons past an interval's end after which its view is dropped;
        ``None`` disables expiration.
    on_expire:
        Callback ``(index, view)`` invoked when a view expires — e.g. to
        emit the billing statement the interval's totals represent.
    """

    def __init__(
        self,
        name: str,
        summary: Summary,
        calendar: Any,
        chronon_of: Optional[ChrononOf] = None,
        expire_after: Optional[float] = None,
        on_expire: Optional[Callable[[int, PersistentView], None]] = None,
    ) -> None:
        self.name = name
        self.summary = summary
        self.calendar = calendar
        self.chronon_of = chronon_of
        self.expire_after = expire_after
        self.on_expire = on_expire
        self._active: Dict[int, PersistentView] = {}
        self._expired: set = set()
        self._clock: Optional[float] = None  # latest chronon observed
        self._instantiated = 0
        #: Whether every interval view, present and future, records the
        #: keys its folds touch (:meth:`record_touched`).
        self._recording = False
        #: Only rows from these chronicles are routed into intervals.
        self._dependencies = {c.name for c in summary.expression.chronicles()}
        #: One plan for every interval view: V_i differs from V only in
        #: which rows it is given.
        self._plan = standalone_plan(summary.expression)

    # -- maintenance ----------------------------------------------------------------

    def maintain(self, deltas: Mapping[str, Delta]) -> int:
        """Place one event's rows in intervals, then run the set's plan
        and fold for each interval; returns the rows folded."""
        folded = 0
        for index, rows_by_chronicle in self.place(deltas).items():
            interval_deltas = {
                name: Delta.unchecked(deltas[name].schema, rows)
                for name, rows in rows_by_chronicle.items()
            }
            folded += self._active[index].apply_delta(self._plan(interval_deltas))
        return folded

    def place(self, deltas: Mapping[str, Delta]) -> Dict[int, Dict[str, List[Row]]]:
        """Split one event's rows by interval and chronicle, advancing
        the clock and instantiating each interval a row falls in (alone,
        for an event the prefilter skips: intervals and expiry then do
        not depend on the prefilter)."""
        chronon_of = self.chronon_of
        per_interval: Dict[int, Dict[str, List[Row]]] = {}
        for chronicle_name, delta in deltas.items():
            if chronicle_name not in self._dependencies:
                continue
            for row in delta.rows:
                chronon = chronon_of(row)
                if self._clock is None or chronon > self._clock:
                    self._clock = chronon
                for index in self.calendar.indices_containing(chronon):
                    if index in self._expired:
                        continue
                    bucket = per_interval.get(index)
                    if bucket is None:
                        self._view(index)
                        bucket = per_interval[index] = {}
                    bucket.setdefault(chronicle_name, []).append(row)
        return per_interval

    def _view(self, index: int) -> PersistentView:
        view = self._active.get(index)
        if view is None:
            view = PersistentView(f"{self.name}[{index}]", self.summary)
            if self._recording:
                view.record_touched()
            self._active[index] = view
            self._instantiated += 1
        return view

    # -- touched keys (delta snapshots) -------------------------------------------------

    def record_touched(self) -> None:
        """Start recording touched keys in every active interval view and
        in every interval view instantiated from now on."""
        self._recording = True
        for view in self._active.values():
            view.record_touched()

    def take_touched(self) -> Optional[Dict[int, List[Tuple[Tuple[Any, ...], Any]]]]:
        """Every active interval's :meth:`PersistentView.take_touched`
        items (an interval instantiated since the last call reports all
        of its state); None when the set is not recording."""
        if not self._recording:
            return None
        return {index: view.take_touched() for index, view in self._active.items()}

    def expire_stale(self) -> None:
        """Drop (and pass to ``on_expire``) every interval view
        ``expire_after`` chronons past its end."""
        if self.expire_after is None or self._clock is None:
            return
        stale = [
            index
            for index in self._active
            if self.calendar.interval_at(index).end + self.expire_after <= self._clock
        ]
        for index in stale:
            view = self._active.pop(index)
            self._expired.add(index)
            if self.on_expire is not None:
                self.on_expire(index, view)

    # -- queries -----------------------------------------------------------------------

    def view(self, index: int) -> PersistentView:
        """The view for interval *index* (instantiating it when fresh).

        Raises :class:`ViewExpiredError` for expired intervals.
        """
        if index in self._expired:
            raise ViewExpiredError(
                f"periodic view {self.name}[{index}] expired "
                f"(interval {self.calendar.interval_at(index)!r})"
            )
        return self._view(index)

    def __getitem__(self, index: int) -> PersistentView:
        return self.view(index)

    def active_indices(self) -> List[int]:
        """Indices of currently materialized interval views, sorted."""
        return sorted(self._active)

    def active_views(self) -> Iterator[Tuple[int, PersistentView]]:
        for index in self.active_indices():
            yield index, self._active[index]

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def instantiated_count(self) -> int:
        """Lifetime number of interval views ever materialized."""
        return self._instantiated

    def __repr__(self) -> str:
        return (
            f"PeriodicViewSet({self.name!r}, active={sorted(self._active)}, "
            f"expired={len(self._expired)})"
        )
