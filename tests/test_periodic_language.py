"""Tests for the periodic view-definition language (DEFINE PERIODIC VIEW
... OVER ..., the Section 5.1 periodic summarized chronicle algebra)."""

import pytest

from repro.core.database import ChronicleDatabase
from repro.errors import CompileError, ParseError, ViewExpiredError
from repro.query.compiler import Catalog, Compiler
from repro.query.parser import parse_view
from repro.views.periodic import PeriodicViewSet


@pytest.fixture
def db():
    database = ChronicleDatabase()
    database.create_chronicle(
        "calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")], retention=0
    )
    return database


class TestParsing:
    def test_every_clause(self):
        view = parse_view(
            "DEFINE PERIODIC VIEW m OVER EVERY 30 AS "
            "SELECT caller, SUM(minutes) AS t FROM calls GROUP BY caller"
        )
        assert view.periodic.width == 30.0
        assert view.periodic.stride == 30.0
        assert view.periodic.by is None

    def test_window_slide_clause(self):
        view = parse_view(
            "DEFINE PERIODIC VIEW w OVER WINDOW 30 SLIDE 1 AS "
            "SELECT SUM(minutes) AS t FROM calls"
        )
        assert view.periodic.width == 30.0
        assert view.periodic.stride == 1.0

    def test_window_default_slide(self):
        view = parse_view(
            "DEFINE PERIODIC VIEW w OVER WINDOW 7 AS SELECT SUM(minutes) AS t FROM calls"
        )
        assert view.periodic.stride == 1.0

    def test_starting_expire_by(self):
        view = parse_view(
            "DEFINE PERIODIC VIEW m OVER EVERY 30 STARTING 10 EXPIRE AFTER 60 BY day "
            "AS SELECT SUM(minutes) AS t FROM calls"
        )
        assert view.periodic.origin == 10.0
        assert view.periodic.expire_after == 60.0
        assert view.periodic.by.name == "day"

    def test_missing_calendar_kind(self):
        with pytest.raises(ParseError):
            parse_view(
                "DEFINE PERIODIC VIEW m OVER 30 AS SELECT SUM(minutes) AS t FROM calls"
            )

    def test_non_periodic_has_no_spec(self):
        view = parse_view("DEFINE VIEW v AS SELECT SUM(minutes) AS t FROM calls")
        assert view.periodic is None


class TestCompiler:
    def test_compile_view_rejects_periodic(self, db):
        compiler = Compiler(db.catalog())
        with pytest.raises(CompileError):
            compiler.compile_view(
                "DEFINE PERIODIC VIEW m OVER EVERY 30 AS "
                "SELECT SUM(minutes) AS t FROM calls"
            )

    def test_compile_definition_builds_chronon_fn(self, db):
        compiler = Compiler(db.catalog())
        compiled = compiler.compile_definition(
            "DEFINE PERIODIC VIEW m OVER EVERY 30 BY day AS "
            "SELECT SUM(minutes) AS t FROM calls"
        )
        assert compiled.is_periodic
        from repro.relational.tuples import Row

        chronicle = db.chronicle("calls")
        row = Row(chronicle.schema, [0, 1, 2, 77])
        assert compiled.chronon_of(row) == 77.0

    def test_by_column_must_be_on_chronicle(self, db):
        db.create_relation("subscribers", [("number", "INT"), ("plan", "STR")],
                           key=["number"])
        compiler = Compiler(db.catalog())
        with pytest.raises(CompileError):
            compiler.compile_definition(
                "DEFINE PERIODIC VIEW m OVER EVERY 30 BY subscribers.plan AS "
                "SELECT SUM(minutes) AS t FROM calls "
                "JOIN subscribers ON calls.caller = subscribers.number"
            )

    def test_unknown_by_column(self, db):
        compiler = Compiler(db.catalog())
        with pytest.raises(Exception):
            compiler.compile_definition(
                "DEFINE PERIODIC VIEW m OVER EVERY 30 BY nope AS "
                "SELECT SUM(minutes) AS t FROM calls"
            )


class TestDatabaseIntegration:
    def test_tiling_periods(self, db):
        months = db.define_view(
            "DEFINE PERIODIC VIEW monthly OVER EVERY 30 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        assert isinstance(months, PeriodicViewSet)
        db.append("calls", {"caller": 1, "minutes": 10, "day": 5})
        db.append("calls", {"caller": 1, "minutes": 20, "day": 45})
        assert months[0].value((1,), "total") == 10
        assert months[1].value((1,), "total") == 20

    def test_sliding_windows(self, db):
        windows = db.define_view(
            "DEFINE PERIODIC VIEW weekly OVER WINDOW 3 SLIDE 1 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        db.append("calls", {"caller": 1, "minutes": 5, "day": 2})
        assert windows.active_indices() == [0, 1, 2]

    def test_expiration_via_language(self, db):
        months = db.define_view(
            "DEFINE PERIODIC VIEW monthly OVER EVERY 30 EXPIRE AFTER 0 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        db.append("calls", {"caller": 1, "minutes": 10, "day": 5})
        db.append("calls", {"caller": 1, "minutes": 10, "day": 65})
        with pytest.raises(ViewExpiredError):
            months[0]

    def test_default_chronon_is_sequence_number(self, db):
        periods = db.define_view(
            "DEFINE PERIODIC VIEW p OVER EVERY 10 AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        for _ in range(25):
            db.append("calls", {"caller": 1, "minutes": 1, "day": 0})
        assert periods.active_indices() == [0, 1, 2]

    def test_registered_under_registry(self, db):
        db.define_view(
            "DEFINE PERIODIC VIEW monthly OVER EVERY 30 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        assert db.periodic_view("monthly") is not None
        assert "monthly" in db.registry

    def test_cli_supports_periodic(self):
        from repro.cli import Session

        session = Session()
        session.execute("CREATE CHRONICLE calls (caller INT, minutes INT, day INT)")
        out = session.execute(
            "DEFINE PERIODIC VIEW monthly OVER EVERY 30 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        assert "monthly" in out
        session.execute('APPEND calls {"caller": 1, "minutes": 5, "day": 2}')
        assert session.db.periodic_view("monthly")[0].value((1,), "total") == 5


class TestDropPeriodicView:
    """A dropped periodic view is no longer maintained (both facades)."""

    DDL = (
        "DEFINE PERIODIC VIEW m OVER EVERY 30 BY day AS "
        "SELECT caller, SUM(minutes) AS t FROM calls GROUP BY caller"
    )

    @pytest.mark.parametrize("engine", ["serial", "sharded"])
    def test_dropped_view_set_is_detached_from_its_group(self, engine):
        from repro.core.config import DatabaseConfig

        db = ChronicleDatabase(config=DatabaseConfig(engine=engine, executor="serial"))
        db.create_chronicle(
            "calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")], retention=0
        )
        group = db.chronicle("calls").group
        listeners_before = len(group._listeners)
        dropped = db.define_view(self.DDL)
        assert len(group._listeners) == listeners_before + 1
        db.append("calls", {"caller": 1, "minutes": 5, "day": 3})
        assert dropped.active_indices() == [0]
        folded = dropped.view(0).maintenance_count

        db.drop_view("m")
        assert len(group._listeners) == listeners_before
        db.append("calls", {"caller": 1, "minutes": 7, "day": 40})  # interval 1
        db.append("calls", {"caller": 1, "minutes": 9, "day": 4})  # interval 0
        # Nothing instantiated, nothing folded after the drop.
        assert dropped.active_indices() == [0]
        assert dropped.instantiated_count == 1
        assert dropped.view(0).maintenance_count == folded
        assert dropped.view(0).value((1,), "t") == 5

        # Re-defining under the same name starts one fresh set, not two.
        again = db.define_view(self.DDL)
        assert len(group._listeners) == listeners_before + 1
        db.append("calls", {"caller": 1, "minutes": 2, "day": 5})
        assert again.view(0).value((1,), "t") == 2
        assert again.view(0).maintenance_count == 1
        db.close()
