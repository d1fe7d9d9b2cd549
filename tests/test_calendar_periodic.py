"""Tests for calendars and periodic persistent views (Section 5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.core.group import ChronicleGroup
from repro.errors import CalendarError, ViewExpiredError
from repro.sca.summarize import GroupBySummary
from repro.views.calendar import (
    ExplicitCalendar,
    Interval,
    PeriodicCalendar,
    monthly,
    sliding,
)
from repro.views.periodic import PeriodicViewSet
from repro.views.registry import ViewRegistry


class TestInterval:
    def test_contains_half_open(self):
        interval = Interval(0, 10)
        assert 0 in interval
        assert 9.99 in interval
        assert 10 not in interval

    def test_empty_rejected(self):
        with pytest.raises(CalendarError):
            Interval(5, 5)

    def test_overlaps(self):
        assert Interval(0, 10).overlaps(Interval(5, 15))
        assert not Interval(0, 10).overlaps(Interval(10, 20))

    def test_width(self):
        assert Interval(2, 7).width == 5


class TestPeriodicCalendar:
    def test_tiling_months(self):
        calendar = monthly(month_length=30.0)
        assert calendar.interval_at(0) == Interval(0, 30)
        assert calendar.interval_at(2) == Interval(60, 90)

    def test_tiling_indices_unique(self):
        calendar = monthly(month_length=30.0)
        assert calendar.indices_containing(0) == [0]
        assert calendar.indices_containing(29.9) == [0]
        assert calendar.indices_containing(30) == [1]

    def test_before_origin_empty(self):
        calendar = PeriodicCalendar(origin=100, width=10)
        assert calendar.indices_containing(50) == []

    def test_sliding_windows_overlap(self):
        calendar = sliding(window=30, step=1)
        indices = calendar.indices_containing(29.5)
        assert indices == list(range(0, 30))

    def test_finite_count(self):
        calendar = PeriodicCalendar(0, 10, count=3)
        assert len(calendar) == 3
        assert calendar.is_finite()
        with pytest.raises(CalendarError):
            calendar.interval_at(3)
        assert calendar.indices_containing(35) == []

    def test_infinite_len_raises(self):
        with pytest.raises(CalendarError):
            len(monthly())

    def test_intervals_iteration_with_limit(self):
        calendar = monthly(month_length=10)
        assert list(calendar.intervals(limit=2)) == [Interval(0, 10), Interval(10, 20)]

    def test_intervals_iteration_infinite_without_limit(self):
        with pytest.raises(CalendarError):
            list(monthly().intervals())

    def test_validation(self):
        with pytest.raises(CalendarError):
            PeriodicCalendar(0, 0)
        with pytest.raises(CalendarError):
            PeriodicCalendar(0, 10, stride=0)
        with pytest.raises(CalendarError):
            PeriodicCalendar(0, 10, count=0)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(-100, 100),
    st.floats(0.5, 50),
    st.floats(0.5, 50),
    st.floats(-200, 400),
)
def test_indices_containing_matches_definition(origin, width, stride, chronon):
    """Property: indices_containing agrees with direct interval checks."""
    calendar = PeriodicCalendar(origin, width, stride=stride)
    reported = calendar.indices_containing(chronon)
    # Exhaustive check over a safe index range.
    upper = max(int((chronon - origin) / stride) + 2, 0)
    expected = [
        index
        for index in range(0, upper)
        if calendar.interval_at(index).contains(chronon)
    ]
    assert reported == expected


class TestExplicitCalendar:
    def test_sorted_and_indexed(self):
        calendar = ExplicitCalendar([(10, 20), (0, 5)])
        assert calendar.interval_at(0) == Interval(0, 5)
        assert calendar.interval_at(1) == Interval(10, 20)

    def test_indices_containing(self):
        calendar = ExplicitCalendar([(0, 10), (5, 15)])
        assert calendar.indices_containing(7) == [0, 1]
        assert calendar.indices_containing(12) == [1]
        assert calendar.indices_containing(20) == []

    def test_empty_rejected(self):
        with pytest.raises(CalendarError):
            ExplicitCalendar([])

    def test_out_of_range(self):
        with pytest.raises(CalendarError):
            ExplicitCalendar([(0, 1)]).interval_at(5)

    def test_is_finite(self):
        assert ExplicitCalendar([(0, 1)]).is_finite()
        assert len(ExplicitCalendar([(0, 1), (1, 2)])) == 2


def build_periodic(calendar, expire_after=None, on_expire=None):
    group = ChronicleGroup("g")
    calls = group.create_chronicle(
        "calls", [("acct", "INT"), ("mins", "INT"), ("day", "INT")], retention=0
    )
    summary = GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
    view_set = PeriodicViewSet(
        "monthly_mins",
        summary,
        calendar,
        chronon_of=lambda row: float(row["day"]),
        expire_after=expire_after,
        on_expire=on_expire,
    )
    registry = ViewRegistry()
    registry.register_periodic(view_set, group)
    registry.attach(group)
    return group, calls, view_set


class TestPeriodicViews:
    def test_routing_to_intervals(self):
        group, calls, views = build_periodic(monthly(month_length=30))
        group.append(calls, {"acct": 1, "mins": 10, "day": 5})    # month 0
        group.append(calls, {"acct": 1, "mins": 20, "day": 35})   # month 1
        group.append(calls, {"acct": 1, "mins": 30, "day": 36})   # month 1
        assert views[0].value((1,), "sum_mins") == 10
        assert views[1].value((1,), "sum_mins") == 50

    def test_lazy_instantiation(self):
        group, calls, views = build_periodic(monthly(month_length=30))
        group.append(calls, {"acct": 1, "mins": 10, "day": 95})  # month 3 only
        assert views.active_indices() == [3]
        assert views.instantiated_count == 1

    def test_overlapping_windows_fold_into_all(self):
        group, calls, views = build_periodic(sliding(window=3, step=1))
        group.append(calls, {"acct": 1, "mins": 7, "day": 2})
        # day 2 lies in windows [0,3), [1,4), [2,5)
        assert views.active_indices() == [0, 1, 2]
        for index in (0, 1, 2):
            assert views[index].value((1,), "sum_mins") == 7

    def test_expiration_drops_views(self):
        expired = []
        group, calls, views = build_periodic(
            monthly(month_length=30),
            expire_after=0.0,
            on_expire=lambda index, view: expired.append(index),
        )
        group.append(calls, {"acct": 1, "mins": 10, "day": 5})
        group.append(calls, {"acct": 1, "mins": 20, "day": 65})  # month 2
        assert expired == [0]
        assert views.active_indices() == [2]

    def test_expired_view_raises(self):
        group, calls, views = build_periodic(monthly(month_length=30), expire_after=0.0)
        group.append(calls, {"acct": 1, "mins": 10, "day": 5})
        group.append(calls, {"acct": 1, "mins": 20, "day": 65})
        with pytest.raises(ViewExpiredError):
            views[0]

    def test_expired_interval_not_remaintained(self):
        group, calls, views = build_periodic(monthly(month_length=30), expire_after=0.0)
        group.append(calls, {"acct": 1, "mins": 10, "day": 65})
        # month 0 already expired: a (hypothetical) late record for it is
        # dropped rather than resurrecting the view.  (Chronicle order makes
        # this rare; chronon mappers may be coarse.)
        group.append(calls, {"acct": 1, "mins": 99, "day": 65})
        assert views.active_indices() == [2]

    def test_grace_period_keeps_views(self):
        group, calls, views = build_periodic(monthly(month_length=30), expire_after=100.0)
        group.append(calls, {"acct": 1, "mins": 10, "day": 5})
        group.append(calls, {"acct": 1, "mins": 20, "day": 65})
        assert views.active_indices() == [0, 2]

    def test_explicit_view_access_instantiates(self):
        group, calls, views = build_periodic(monthly(month_length=30))
        view = views.view(7)
        assert views.active_indices() == [7]
        assert len(view) == 0

    def test_default_chronon_uses_group_mapper(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
        summary = GroupBySummary(scan(calls), ["acct"], [spec(COUNT)])
        views = PeriodicViewSet("v", summary, monthly(month_length=10))
        registry = ViewRegistry()
        registry.register_periodic(views, group)
        registry.attach(group)
        for _ in range(25):
            group.append(calls, {"acct": 1, "mins": 1})
        # Identity chronons: sequence numbers 0..24 → months 0,1,2.
        assert views.active_indices() == [0, 1, 2]
        assert views[1].value((1,), "count") == 10
