"""The no-access extent covers every maintenance path.

Theorems 4.2/4.4 say maintenance never reads a chronicle; the guard
(:class:`~repro.core.chronicle.maintenance_guard`) makes a read inside it
raise :class:`~repro.errors.ChronicleAccessError`.  Two kinds of user code
run during maintenance: a predicate evaluated by a plan step, and a custom
aggregate's ``step`` called by the fold.  Each must meet the guard on every
path that maintains a view.  The registry is the one maintainer, so the
paths are the registries that reach it: the serial registry (views and
periodic view sets alike), a shard unit of the sharded engine, the
one-view registry of ``attach_view``, and a direct ``apply_delta``
called outside any extent.  The registry cases also check that the read
met the *one* extent the event opened, not one the fold opened for
itself.  The registry's routing runs
in that extent too: its tests are the selection step of the views the
dispatch index seeds, so a predicate read there is refused as well.
"""

import pytest

from repro.aggregates import SUM, spec
from repro.aggregates.base import IncrementalAggregate
from repro.algebra.ast import scan
from repro.core.chronicle import in_maintenance, maintenance_guard
from repro.core.config import DatabaseConfig
from repro.core.database import ChronicleDatabase
from repro.core.delta import Delta
from repro.errors import ChronicleAccessError
from repro.relational.predicate import Comparison
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView
from repro.views.calendar import PeriodicCalendar
from repro.views.registry import attach_view


def read(chronicle):
    """One chronicle read, the kind maintenance must never make."""
    return list(chronicle.rows())


class ReadingComparison(Comparison):
    """``minutes > 0``, in the CA fragment, whose test reads a chronicle:
    what a selection step calls for each row.  With the prefilter on, the
    registry's routing runs the test too, inside the event's extent: for
    a view whose χ is σ…σ(scan) it *is* the selection step, since the
    plan reads the rows routing accepted."""

    __slots__ = ()

    def __init__(self, chronicle):
        super().__init__("minutes", ">", 0)
        greater = self._fn

        def reading(left, right):
            read(chronicle)
            return greater(left, right)

        self._fn = reading


class ReadingSum(IncrementalAggregate):
    """SUM whose ``step`` reads a chronicle: what the fold calls per row."""

    name = "READING_SUM"

    def __init__(self, chronicle):
        self.chronicle = chronicle

    def initial(self):
        return 0

    def step(self, state, value):
        read(self.chronicle)
        return state + value

    def merge(self, left, right):
        return left + right


def make_db(config=None):
    db = ChronicleDatabase(config=config)
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
    return db


def plan_reading(calls):
    """A grouped summary whose plan step reads *calls*."""
    expression = scan(calls).select(ReadingComparison(calls))
    return GroupBySummary(expression, ["caller"], [spec(SUM, "minutes", output="total")])


def projected_reading(calls):
    """A filtered summary the dispatch index does not seed: a projection
    reshapes the selection, so its plan computes the delta."""
    expression = scan(calls).select(ReadingComparison(calls)).project(["sn", "caller", "minutes"])
    return GroupBySummary(expression, ["caller"], [spec(SUM, "minutes", output="total")])


def fold_reading(calls):
    """A grouped summary whose custom aggregate's step reads *calls*."""
    return GroupBySummary(
        scan(calls), ["caller"], [spec(ReadingSum(calls), "minutes", output="total")]
    )


@pytest.fixture
def guard_entries(monkeypatch):
    """How many times the no-access extent is entered."""
    entries = []
    enter = maintenance_guard.__enter__

    def counting(self):
        entries.append(1)
        return enter(self)

    monkeypatch.setattr(maintenance_guard, "__enter__", counting)
    return entries


BUILDERS = {"plan-step": plan_reading, "fold-step": fold_reading}
CONFIGS = {
    "serial registry": None,
    "shard unit": DatabaseConfig(engine="sharded", shards=2),
}


@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
@pytest.mark.parametrize("build", list(BUILDERS.values()), ids=list(BUILDERS))
def test_registry_event_extent_covers_plan_and_fold(config, build, guard_entries):
    db = make_db(config)
    # A plain sibling, maintained first: a fold that opened its own
    # extent would enter the guard once per view, not once per event.
    db.define_view(
        "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
    )
    db.define_view(build(db.chronicle("calls")), name="v")
    if config is not None:
        # Both maintained by one shard unit's registry.
        assert {"usage", "v"} <= set(db._shards.merged)
    with pytest.raises(ChronicleAccessError):
        db.append("calls", {"caller": 1, "minutes": 5})
    assert guard_entries == [1]  # the event's one extent, nothing nested
    assert not in_maintenance()


def test_registry_event_extent_covers_routing(guard_entries):
    db = make_db()
    db.define_view(projected_reading(db.chronicle("calls")), name="v")
    assert not db.registry._views["v"].seeded
    # The record fails the test, so no plan runs: the read is the
    # routing test's, and it meets the event's one extent.
    with pytest.raises(ChronicleAccessError):
        db.append("calls", {"caller": 1, "minutes": 0})
    assert guard_entries == [1]
    assert not in_maintenance()


@pytest.mark.parametrize("build", list(BUILDERS.values()), ids=list(BUILDERS))
def test_periodic_set_extent_covers_plan_and_fold(build, guard_entries):
    db = make_db()
    db.define_periodic_view(
        "monthly",
        build(db.chronicle("calls")),
        PeriodicCalendar(0, 10),
        chronon_of=lambda row: float(row["minutes"]),
    )
    with pytest.raises(ChronicleAccessError):
        db.append("calls", {"caller": 1, "minutes": 5})
    assert guard_entries == [1]
    assert not in_maintenance()


@pytest.mark.parametrize("build", list(BUILDERS.values()), ids=list(BUILDERS))
def test_attach_view_covers_plan_and_fold(build, guard_entries):
    db = make_db()
    calls = db.chronicle("calls")
    attach_view(PersistentView("v", build(calls)), db.group())
    with pytest.raises(ChronicleAccessError):
        db.append("calls", {"caller": 1, "minutes": 5})
    assert guard_entries == [1]
    assert not in_maintenance()


def test_direct_apply_delta_opens_its_own_extent(guard_entries):
    db = make_db()
    calls = db.chronicle("calls")
    view = PersistentView("v", fold_reading(calls))
    rows = db.group().append(calls, {"caller": 1, "minutes": 5})
    with pytest.raises(ChronicleAccessError):
        view.apply_delta(Delta(calls.schema, rows))
    assert guard_entries == [1]
    assert not in_maintenance()


def test_apply_delta_inside_an_extent_opens_none(guard_entries):
    db = make_db()
    calls = db.chronicle("calls")
    summary = GroupBySummary(scan(calls), ["caller"], [spec(SUM, "minutes", output="total")])
    view = PersistentView("v", summary)
    rows = db.group().append(calls, {"caller": 1, "minutes": 5})
    with maintenance_guard():
        assert view.apply_delta(Delta(calls.schema, rows)) == 1
    assert guard_entries == [1]
    assert view.value((1,), "total") == 5
