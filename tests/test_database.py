"""End-to-end tests for the ChronicleDatabase façade (Definition 2.1)."""

from contextlib import nullcontext

import pytest

from repro.aggregates import SUM, spec
from repro.algebra.ast import scan
from repro.core.config import DatabaseConfig, DurabilityConfig
from repro.core.database import ChronicleDatabase
from repro.errors import (
    ChronicleGroupError,
    RetentionError,
    RetroactiveUpdateError,
    SchemaError,
    SequenceOrderError,
    TypeMismatchError,
    UnknownAttributeError,
    ViewError,
    ViewRegistrationError,
)
from repro.parallel.engine import UnpartitionableViewWarning
from repro.sca.summarize import GroupBySummary
from repro.views.calendar import monthly


@pytest.fixture
def db():
    database = ChronicleDatabase()
    database.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")])
    database.create_relation(
        "subscribers", [("number", "INT"), ("state", "STR")], key=["number"]
    )
    database.relation("subscribers").insert({"number": 1, "state": "NJ"})
    database.relation("subscribers").insert({"number": 2, "state": "NY"})
    return database


class TestCatalogManagement:
    def test_duplicate_chronicle_rejected(self, db):
        with pytest.raises(ChronicleGroupError):
            db.create_chronicle("calls", [("x", "INT")])

    def test_duplicate_relation_rejected(self, db):
        with pytest.raises(ChronicleGroupError):
            db.create_relation("subscribers", [("x", "INT")])

    def test_chronicle_relation_name_collision_rejected(self, db):
        with pytest.raises(ChronicleGroupError):
            db.create_relation("calls", [("x", "INT")])
        with pytest.raises(ChronicleGroupError):
            db.create_chronicle("subscribers", [("x", "INT")])

    def test_missing_lookups(self, db):
        with pytest.raises(ChronicleGroupError):
            db.chronicle("nope")
        with pytest.raises(ChronicleGroupError):
            db.relation("nope")
        with pytest.raises(ChronicleGroupError):
            db.group("nope")

    def test_explicit_groups(self):
        db = ChronicleDatabase()
        db.create_group("billing")
        db.create_chronicle("calls", [("x", "INT")], group="billing")
        assert db.chronicle("calls").group.name == "billing"
        with pytest.raises(ChronicleGroupError):
            db.create_group("billing")


class TestViews:
    def test_sql_view_lifecycle(self, db):
        db.define_view(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        db.append("calls", {"caller": 1, "minutes": 10, "day": 0})
        db.append("calls", {"caller": 1, "minutes": 5, "day": 0})
        assert db.view_value("usage", (1,), "total") == 15
        assert db.view_row("usage", (2,)) is None

    def test_programmatic_view(self, db):
        calls = db.chronicle("calls")
        summary = GroupBySummary(scan(calls), ["caller"], [spec(SUM, "minutes")])
        db.define_view(summary, name="usage")
        db.append("calls", {"caller": 2, "minutes": 7, "day": 0})
        assert db.view_value("usage", (2,), "sum_minutes") == 7

    def test_programmatic_view_requires_name(self, db):
        calls = db.chronicle("calls")
        summary = GroupBySummary(scan(calls), ["caller"], [spec(SUM, "minutes")])
        with pytest.raises(ViewRegistrationError):
            db.define_view(summary)

    def test_view_with_relation_join(self, db):
        db.define_view(
            "DEFINE VIEW by_state AS SELECT state, SUM(minutes) AS total "
            "FROM calls JOIN subscribers ON calls.caller = subscribers.number "
            "GROUP BY state"
        )
        db.append("calls", {"caller": 1, "minutes": 10, "day": 0})
        db.append("calls", {"caller": 2, "minutes": 20, "day": 0})
        assert db.view_value("by_state", ("NJ",), "total") == 10
        assert db.view_value("by_state", ("NY",), "total") == 20

    def test_late_view_materializes_from_store(self, db):
        db.append("calls", {"caller": 1, "minutes": 10, "day": 0})
        db.append("calls", {"caller": 1, "minutes": 20, "day": 0})
        db.define_view(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        assert db.view_value("usage", (1,), "total") == 30
        db.append("calls", {"caller": 1, "minutes": 5, "day": 0})
        assert db.view_value("usage", (1,), "total") == 35

    def test_drop_view(self, db):
        view = db.define_view(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        db.drop_view("usage")
        db.append("calls", {"caller": 1, "minutes": 10, "day": 0})
        assert view.maintenance_count == 0

    def test_periodic_view(self, db):
        views = db.define_periodic_view(
            "monthly",
            "DEFINE VIEW monthly AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller",
            monthly(month_length=30),
            chronon_of=lambda row: float(row["day"]),
        )
        db.append("calls", {"caller": 1, "minutes": 10, "day": 5})
        db.append("calls", {"caller": 1, "minutes": 20, "day": 45})
        assert views[0].value((1,), "total") == 10
        assert views[1].value((1,), "total") == 20
        assert db.periodic_view("monthly") is views


class TestUpdates:
    def test_append_unknown_chronicle(self, db):
        with pytest.raises(ChronicleGroupError):
            db.append("nope", {"x": 1})

    def test_proactive_relation_update(self, db):
        db.append("calls", {"caller": 1, "minutes": 10, "day": 0})
        assert db.update_relation("subscribers", (1,), state="CA")
        assert db.relation("subscribers").lookup_key((1,))["state"] == "CA"

    def test_retroactive_relation_update_rejected(self, db):
        db.append("calls", {"caller": 1, "minutes": 10, "day": 0})
        with pytest.raises(RetroactiveUpdateError):
            db.relation("subscribers").update_key((1,), effective_from=0, state="CA")

    def test_simultaneous_appends(self, db):
        db.create_chronicle("texts", [("sender", "INT")])
        stamped = db.append_simultaneous(
            {"calls": {"caller": 1, "minutes": 1, "day": 0}, "texts": {"sender": 2}}
        )
        sns = {rows[0].sequence_number for rows in stamped.values()}
        assert len(sns) == 1


REFUSALS = {
    # The first chronicle's batch is well-formed; the second's is not.
    "second chronicle mistyped": (
        TypeMismatchError,
        lambda db: db.append_simultaneous(
            {"a": [{"k": 1, "x": 5}], "b": [{"k": 1, "y": "bad"}]}
        ),
    ),
    "last record unknown attribute": (
        UnknownAttributeError,
        lambda db: db.append("a", [{"k": 2, "x": 1}, {"k": 2, "x": 1, "zzz": 0}]),
    ),
    "missing attribute": (SchemaError, lambda db: db.append("a", [{"k": 3}])),
    "foreign sequence number": (
        SchemaError,
        lambda db: db.append("a", [{"sn": 99, "k": 3, "x": 1}]),
    ),
    "stale sequence number": (
        SequenceOrderError,
        lambda db: db.append("a", {"k": 3, "x": 1}, sequence_number=0),
    ),
    "NULL for a non-nullable attribute": (
        TypeMismatchError,
        lambda db: db.append("a", [(4, 1), (4, None)]),
    ),
}


class TestRefusedCallsChangeNothing:
    """A call that admission refuses leaves no trace: stored rows,
    appended counts, views, watermarks, the log and the next sequence
    number are what they were before it."""

    @pytest.fixture(params=["serial", "sharded", "wal+snapshot"])
    def database(self, request, tmp_path):
        if request.param == "wal+snapshot":
            directory = str(tmp_path / "db")
            durability = DurabilityConfig(
                mode="wal+snapshot", dir=directory, fsync="off", snapshot_interval_batches=3
            )
            database = ChronicleDatabase.open(
                directory, config=DatabaseConfig(durability=durability)
            )
        elif request.param == "sharded":
            database = ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=2))
        else:
            database = ChronicleDatabase()
        database.create_chronicle("a", [("k", "INT"), ("x", "INT")])
        database.create_chronicle("b", [("k", "INT"), ("y", "INT")])
        database.define_view("DEFINE VIEW va AS SELECT k, SUM(x) AS t FROM a GROUP BY k")
        database.define_view("DEFINE VIEW vb AS SELECT k, SUM(y) AS t FROM b GROUP BY k")
        database.append_simultaneous({"a": [{"k": 0, "x": 1}], "b": [{"k": 0, "y": 2}]})
        yield database
        database.close()

    @staticmethod
    def state(db):
        chronicles = {
            name: (list(db.chronicle(name).rows()), db.chronicle(name).appended_count)
            for name in ("a", "b")
        }
        views = {name: sorted(row.values for row in db.view(name)) for name in ("va", "vb")}
        log = db.durability.wal.log_rows() if db.durability is not None else None
        return chronicles, views, db.watermarks(), db.group().next_sequence_number(), log

    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    def test_refused_call(self, database, refusal):
        error, call = REFUSALS[refusal]
        before = self.state(database)
        with pytest.raises(error):
            call(database)
        assert self.state(database) == before
        rows = database.append("a", {"k": 1, "x": 5})
        assert rows[0].sequence_number == before[3]
        assert database.view_value("va", (1,), "t") == 5

    def test_a_recovered_log_holds_no_refused_record(self, database):
        if database.durability is None:
            pytest.skip("durability off")
        for error, call in REFUSALS.values():
            with pytest.raises(error):
                call(database)
        database.append("b", {"k": 1, "y": 3})
        live = self.state(database)[1:]
        path = database.durability.config.dir
        database.durability.abort()
        database.close()
        reopened = ChronicleDatabase.open(path, config=database.config)
        try:
            assert self.state(reopened)[1:] == live
        finally:
            reopened.close()


class TestQueries:
    def test_detail_window(self, db):
        for i in range(5):
            db.append("calls", {"caller": 1, "minutes": i, "day": 0})
        rows = db.detail_window("calls", 1, 3)
        assert [r["minutes"] for r in rows] == [1, 2, 3]

    def test_detail_window_respects_retention(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("m", "INT")], retention=2)
        for i in range(10):
            db.append("calls", {"m": i})
        with pytest.raises(RetentionError):
            db.detail_window("calls", 0, 5)

    @pytest.mark.parametrize("engine", ["serial", "sharded"])
    def test_key_of_the_wrong_arity_raises_view_error(self, engine):
        """A key locates a row only with one value per summary key
        attribute; a global aggregate's key is ``()``."""
        db = ChronicleDatabase(config=DatabaseConfig(engine=engine, shards=2))
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
        db.define_view(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        with pytest.warns(UnpartitionableViewWarning) if engine == "sharded" else nullcontext():
            db.define_view("DEFINE VIEW grand AS SELECT SUM(minutes) AS total FROM calls")
        db.append("calls", {"caller": 1, "minutes": 5})
        cases = [("usage", (1, 2)), ("usage", 1), ("usage", ()), ("grand", (1,)), ("grand", "x")]
        for name, key in cases:
            names = r"\(caller\)" if name == "usage" else r"\(\)"
            with pytest.raises(ViewError, match=names):
                db.view_row(name, key)
            with pytest.raises(ViewError, match=names):
                db.view_value(name, key, "total")
        assert db.view_value("usage", (1,), "total") == 5
        assert db.view_value("usage", [1], "total") == 5
        assert db.view_value("grand", (), "total") == 5
        db.close()

    def test_summary_query_needs_no_chronicle(self):
        """The paper's subsecond summary-query promise: answers come from
        the view even when the chronicle stores nothing."""
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
        db.define_view(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        for i in range(200):
            db.append("calls", {"caller": i % 3, "minutes": 1})
        assert db.view_value("usage", (0,), "total") == 67
        assert len(db.chronicle("calls")) == 0
