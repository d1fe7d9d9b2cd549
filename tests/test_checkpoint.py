"""Tests for durable checkpoints: the restart story of a database whose
primary data (the chronicle) is never stored."""

import io
import json

import pytest

from repro.core.database import ChronicleDatabase
from repro.storage.checkpoint import (
    CheckpointError,
    write_checkpoint,
    load_checkpoint,
)


def build(define_views=True, materialize=False):
    db = ChronicleDatabase()
    db.create_chronicle(
        "calls", [("caller", "INT"), ("minutes", "INT")], retention=0
    )
    db.create_relation("subscribers", [("number", "INT"), ("state", "STR")],
                       key=["number"])
    db.relation("subscribers").insert({"number": 1, "state": "NJ"})
    if define_views:
        db.define_view(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total, "
            "AVG(minutes) AS mean, MIN(minutes) AS low, LAST(minutes) AS latest "
            "FROM calls GROUP BY caller",
            materialize=materialize,
        )
        db.define_view(
            "DEFINE VIEW grand AS SELECT COUNT(*) AS n FROM calls",
            materialize=materialize,
        )
    return db


class TestRoundTrip:
    def test_views_survive_restart(self, tmp_path):
        db = build()
        for minutes in (10, 20, 33):
            db.append("calls", {"caller": 1, "minutes": minutes})
        db.append("calls", {"caller": 2, "minutes": 5})
        path = str(tmp_path / "db.ckpt")
        db.checkpoint(path)

        fresh = build()
        fresh.restore(path)
        assert fresh.view_value("usage", (1,), "total") == 63
        assert fresh.view_value("usage", (1,), "mean") == 21.0
        assert fresh.view_value("usage", (1,), "latest") == 33
        assert fresh.view_value("grand", (), "n") == 4

    def test_maintenance_continues_after_restore(self, tmp_path):
        db = build()
        db.append("calls", {"caller": 1, "minutes": 10})
        path = str(tmp_path / "db.ckpt")
        db.checkpoint(path)

        fresh = build()
        fresh.restore(path)
        fresh.append("calls", {"caller": 1, "minutes": 5})
        assert fresh.view_value("usage", (1,), "total") == 15
        assert fresh.view_value("usage", (1,), "mean") == 7.5  # AVG state resumed
        assert fresh.view_value("grand", (), "n") == 2

    def test_watermark_restored(self, tmp_path):
        db = build(define_views=False)
        for _ in range(7):
            db.append("calls", {"caller": 1, "minutes": 1})
        path = str(tmp_path / "db.ckpt")
        db.checkpoint(path)

        fresh = build(define_views=False)
        fresh.restore(path)
        rows = fresh.append("calls", {"caller": 1, "minutes": 1})
        assert rows[0].sequence_number == 7  # continues, does not restart at 0

    def test_relations_restored(self, tmp_path):
        db = build(define_views=False)
        db.relation("subscribers").insert({"number": 2, "state": "NY"})
        path = str(tmp_path / "db.ckpt")
        db.checkpoint(path)

        fresh = build(define_views=False)
        fresh.restore(path)
        assert len(fresh.relation("subscribers")) == 2
        assert fresh.relation("subscribers").lookup_key((2,))["state"] == "NY"

    def test_stream_target(self):
        db = build()
        db.append("calls", {"caller": 1, "minutes": 10})
        buffer = io.StringIO()
        write_checkpoint(db, buffer)
        buffer.seek(0)
        fresh = build()
        load_checkpoint(fresh, buffer)
        assert fresh.view_value("usage", (1,), "total") == 10

    def test_document_is_plain_json(self, tmp_path):
        db = build()
        db.append("calls", {"caller": 1, "minutes": 10})
        path = str(tmp_path / "db.ckpt")
        db.checkpoint(path)
        with open(path) as handle:
            document = json.load(handle)
        assert document["format"] == 1
        assert "usage" in document["views"]

    def test_restore_from_document_dict(self):
        db = build()
        db.append("calls", {"caller": 1, "minutes": 10})
        document = write_checkpoint(db, io.StringIO())
        fresh = build()
        load_checkpoint(fresh, document)
        assert fresh.view_value("usage", (1,), "total") == 10


#: ``checkpoint_document`` of ``build()`` after five appends, as written
#: before views stopped persisting their rows (each view carries a
#: ``"rows"`` section, in first-appearance order, beside its state).
LEGACY_DOCUMENT = json.loads(
    """
{"format": 1, "groups": {"default": {"watermark": 4}},
 "relations": {"subscribers": [{"__tuple__": [1, "NJ"]}]},
 "views": {
  "usage": {
   "rows": [{"__tuple__": [2, 5, 5.0, 5, 5]}, {"__tuple__": [1, 63, 21.0, 10, 33]},
            {"__tuple__": [3, 7, 7.0, 7, 7]}],
   "state": [[{"__tuple__": [1]}, [63, {"__tuple__": [63, 3]}, 10, {"__tuple__": [true, 33]}]],
             [{"__tuple__": [2]}, [5, {"__tuple__": [5, 1]}, 5, {"__tuple__": [true, 5]}]],
             [{"__tuple__": [3]}, [7, {"__tuple__": [7, 1]}, 7, {"__tuple__": [true, 7]}]]],
   "maintenance_count": 5},
  "grand": {"rows": [{"__tuple__": [5]}], "state": [[{"__tuple__": []}, [5]]],
            "maintenance_count": 5}},
 "periodic": {}}
"""
)


class TestRowsAreNotPersisted:
    def test_document_carries_state_only(self):
        db = build()
        db.append("calls", {"caller": 1, "minutes": 10})
        document = write_checkpoint(db, io.StringIO())
        for payload in document["views"].values():
            assert sorted(payload) == ["maintenance_count", "state"]
        # Items are (key, accumulators): nothing about where a row sits.
        ((key, state),) = document["views"]["usage"]["state"]
        assert len(state) == 4

    def test_legacy_document_with_rows_still_restores(self):
        fresh = build()
        fresh.restore(LEGACY_DOCUMENT)
        assert [row.values for row in fresh.view("usage")] == [
            (1, 63, 21.0, 10, 33),  # key order, not first-appearance order
            (2, 5, 5.0, 5, 5),
            (3, 7, 7.0, 7, 7),
        ]
        assert fresh.view_value("grand", (), "n") == 5
        assert fresh.view("usage").maintenance_count == 5
        fresh.append("calls", {"caller": 1, "minutes": 7})
        assert fresh.view_value("usage", (1,), "mean") == 17.5  # AVG state resumed
        assert fresh.view_value("usage", (1,), "latest") == 7
        assert fresh.view_value("grand", (), "n") == 6

    def test_restore_rebuilds_rows_and_state_exactly(self):
        db = build()
        for caller, minutes in ((2, 5), (1, 10), (1, 20), (3, 7), (1, 33)):
            db.append("calls", {"caller": caller, "minutes": minutes})
        document = write_checkpoint(db, io.StringIO())
        fresh = build()
        fresh.restore(json.loads(json.dumps(document)))
        for name in ("usage", "grand"):
            assert fresh.view(name).state_export() == db.view(name).state_export()
            assert fresh.view(name).to_table() == db.view(name).to_table()


class TestPeriodicCheckpoint:
    def build_periodic(self):
        db = ChronicleDatabase()
        db.create_chronicle(
            "calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")],
            retention=0,
        )
        db.define_view(
            "DEFINE PERIODIC VIEW monthly OVER EVERY 30 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        return db

    def test_periodic_views_round_trip(self):
        db = self.build_periodic()
        db.append("calls", {"caller": 1, "minutes": 10, "day": 5})
        db.append("calls", {"caller": 1, "minutes": 20, "day": 45})
        buffer = io.StringIO()
        write_checkpoint(db, buffer)
        buffer.seek(0)

        fresh = self.build_periodic()
        load_checkpoint(fresh, buffer)
        months = fresh.periodic_view("monthly")
        assert months[0].value((1,), "total") == 10
        assert months[1].value((1,), "total") == 20
        assert months.instantiated_count == 2
        # Maintenance continues into the restored interval views.
        fresh.append("calls", {"caller": 1, "minutes": 5, "day": 46})
        assert months[1].value((1,), "total") == 25

    def test_expired_intervals_stay_expired(self):
        db = ChronicleDatabase()
        db.create_chronicle(
            "calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")],
            retention=0,
        )
        db.define_view(
            "DEFINE PERIODIC VIEW monthly OVER EVERY 30 EXPIRE AFTER 0 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        db.append("calls", {"caller": 1, "minutes": 10, "day": 5})
        db.append("calls", {"caller": 1, "minutes": 20, "day": 65})  # expires month 0
        buffer = io.StringIO()
        write_checkpoint(db, buffer)
        buffer.seek(0)

        fresh = ChronicleDatabase()
        fresh.create_chronicle(
            "calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")],
            retention=0,
        )
        fresh.define_view(
            "DEFINE PERIODIC VIEW monthly OVER EVERY 30 EXPIRE AFTER 0 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        load_checkpoint(fresh, buffer)
        from repro.errors import ViewExpiredError

        with pytest.raises(ViewExpiredError):
            fresh.periodic_view("monthly")[0]


class TestValidation:
    def test_unknown_view_rejected(self, tmp_path):
        db = build()
        path = str(tmp_path / "db.ckpt")
        db.checkpoint(path)
        fresh = build(define_views=False)
        with pytest.raises(CheckpointError):
            fresh.restore(path)

    def test_unknown_relation_rejected(self, tmp_path):
        db = build(define_views=False)
        path = str(tmp_path / "db.ckpt")
        db.checkpoint(path)
        fresh = ChronicleDatabase()
        fresh.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        with pytest.raises(CheckpointError):
            fresh.restore(path)

    def test_unknown_group_rejected(self, tmp_path):
        db = build(define_views=False)
        path = str(tmp_path / "db.ckpt")
        db.checkpoint(path)
        fresh = ChronicleDatabase()  # no groups at all
        with pytest.raises(CheckpointError):
            fresh.restore(path)

    def test_bad_format_version(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "w") as handle:
            json.dump({"format": 99}, handle)
        with pytest.raises(CheckpointError):
            build().restore(path)

    def test_atomic_write_leaves_no_temp_on_success(self, tmp_path):
        db = build()
        path = str(tmp_path / "db.ckpt")
        db.checkpoint(path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".ckpt" and p.name != "db.ckpt"]
        assert leftovers == []
