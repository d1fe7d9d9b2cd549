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
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..algebra.plan import standalone_plan
from ..core.chronicle import maintenance_guard
from ..core.delta import Delta
from ..core.group import ChronicleGroup
from ..errors import ViewExpiredError
from ..relational.tuples import Row
from ..sca.maintenance import event_deltas
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
        intervals.  Defaults to the owning group's chronon mapper applied
        to the row's sequence number, per Section 5.1 ("a mapping from
        sequence numbers in a chronicle to time intervals").
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
        self._chronon_of = chronon_of
        self.expire_after = expire_after
        self.on_expire = on_expire
        self._active: Dict[int, PersistentView] = {}
        self._expired: set = set()
        self._clock: Optional[float] = None  # latest chronon observed
        self._instantiated = 0
        #: Only rows from these chronicles are routed into intervals.
        self._dependencies = {c.name for c in summary.expression.chronicles()}
        #: One plan for every interval view: V_i differs from V only in
        #: which rows it is given.
        self._plan = standalone_plan(summary.expression)
        self._group: Optional[ChronicleGroup] = None

    # -- wiring ------------------------------------------------------------------

    def attach(self, group: ChronicleGroup) -> None:
        """Subscribe to a group's append events."""
        if self._chronon_of is None:
            chronons = group.chronons

            def default_chronon(row: Row) -> float:
                return chronons.chronon(row.sequence_number)

            self._chronon_of = default_chronon
        group.subscribe(self._listener)
        self._group = group

    def detach(self) -> None:
        """Stop maintaining: unsubscribe from the group (drop view)."""
        if self._group is not None:
            self._group.unsubscribe(self._listener)
            self._group = None

    def _listener(self, group: ChronicleGroup, event: Mapping[str, Tuple[Row, ...]]) -> None:
        deltas = event_deltas(group, event)
        if deltas:
            self.route_event(deltas)

    # -- maintenance ----------------------------------------------------------------

    def route_event(self, deltas: Mapping[str, Delta]) -> int:
        """Split one event across interval views and maintain each.

        Returns the number of interval views touched.
        """
        assert self._chronon_of is not None, "attach() the view set first"
        per_interval: Dict[int, Dict[str, List[Row]]] = {}
        for chronicle_name, delta in deltas.items():
            if chronicle_name not in self._dependencies:
                continue
            for row in delta.rows:
                chronon = self._chronon_of(row)
                if self._clock is None or chronon > self._clock:
                    self._clock = chronon
                for index in self.calendar.indices_containing(chronon):
                    if index in self._expired:
                        continue
                    bucket = per_interval.setdefault(index, {})
                    bucket.setdefault(chronicle_name, []).append(row)
        plan = self._plan
        for index, rows_by_chronicle in per_interval.items():
            interval_deltas = {
                name: Delta(deltas[name].schema, rows)
                for name, rows in rows_by_chronicle.items()
            }
            with maintenance_guard():
                delta = plan(interval_deltas)
            self._view(index).apply_delta(delta)
        self._expire_stale()
        return len(per_interval)

    def _view(self, index: int) -> PersistentView:
        view = self._active.get(index)
        if view is None:
            view = PersistentView(f"{self.name}[{index}]", self.summary)
            self._active[index] = view
            self._instantiated += 1
        return view

    def _expire_stale(self) -> None:
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
