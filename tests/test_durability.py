"""Tests for the durability subsystem (WAL + snapshots + open/flush/close).

Covers the crash-recovery property (recovered views must equal a serial
recompute of exactly the logged batches, for every workload generator on
both engines, across snapshot chains of several deltas), kill -9 of a
live ingesting process (inline and process executors; recovery counts
validated against the SQLite log itself), watermark-bounded replay
(exactly the tail past the last snapshot), the snapshot chain (crashes
between deltas and right after a compaction base, failed snapshot
writes, corrupt or malformed chains, what forces a base, relation rows
and periodic expiry carried by deltas, the chain's metrics and status),
a directory in the pre-chain single-snapshot layout, mid-stream DDL
(views defined between snapshots rebuild with their history-derived
state), relation proactivity updates, full replay of a log no snapshot
truncated, a raising call that logs nothing, cross-engine
recovery, corrupt-log failure (RecoveryError + incident bundle), the
unified lifecycle API (open/flush/close, the refusal to construct over
existing durable state), zero-cost off mode, DurabilityConfig
validation, and NonDurableWarning cases.
"""

import json
import os
import pickle
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import textwrap
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BankingWorkload,
    ChronicleDatabase,
    CreditCardWorkload,
    DatabaseConfig,
    DurabilityConfig,
    FrequentFlyerWorkload,
    SensorWorkload,
    StockWorkload,
    TelecomWorkload,
)
from repro.aggregates import COUNT, MAX, SUM, spec
from repro.algebra.ast import scan
from repro.errors import ConfigError
from repro.obs import runtime as obs_runtime
from repro.parallel import UnpartitionableViewWarning
from repro.relational.predicate import attr_cmp
from repro.sca.summarize import GroupBySummary
from repro.storage.durability import DurabilityManager, NonDurableWarning, RecoveryError
from repro.storage.wal import PAGE_SIZE, SCHEMA_VERSION, ChronicleWal, WalError, wal_path


@pytest.fixture(autouse=True)
def _clean_runtime():
    assert obs_runtime.ACTIVE is None
    yield
    obs_runtime.ACTIVE = None


#: (workload class, grouping attribute, summed attribute) — one entry
#: per application domain shipped with the repro.
WORKLOADS = [
    (BankingWorkload, "acct", "cents"),
    (TelecomWorkload, "caller", "seconds"),
    (CreditCardWorkload, "card", "cents"),
    (FrequentFlyerWorkload, "acct", "miles"),
    (StockWorkload, "symbol", "shares"),
    (SensorWorkload, "sensor", "milli"),
]

VIEW_NAMES = ("by_key", "filtered", "grand")

#: Engine selections exercised in-process (the process executor is
#: covered by the kill -9 subprocess test below).
ENGINES = {
    "serial": {"engine": "serial"},
    "sharded-serial": {"engine": "sharded", "shards": 2, "executor": "serial"},
}


def _config(directory, engine="serial", interval=3, fsync="off"):
    return DatabaseConfig(
        durability=DurabilityConfig(
            mode="wal+snapshot",
            dir=directory,
            fsync=fsync,
            snapshot_interval_batches=interval,
        ),
        **ENGINES[engine],
    )


def _catalog(db, workload_cls, key, value):
    """The three-view catalog of test_parallel, declared on an open db."""
    workload = workload_cls(seed=7)
    db.create_chronicle(workload.NAME, workload.CHRONICLE_SCHEMA)
    chron = db.chronicle(workload.NAME)
    db.define_view(
        GroupBySummary(scan(chron), [key], [spec(SUM, value), spec(COUNT)]),
        name="by_key",
    )
    db.define_view(
        GroupBySummary(
            scan(chron).select(attr_cmp(value, ">", 10)),
            [key],
            [spec(COUNT), spec(MAX, value)],
        ),
        name="filtered",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnpartitionableViewWarning)
        db.define_view(
            GroupBySummary(scan(chron), [], [spec(SUM, value), spec(COUNT)]),
            name="grand",
        )
    return workload


def _state(db):
    return {
        name: sorted(tuple(row.values) for row in db.view(name).rows())
        for name in VIEW_NAMES
    }


def _reference(workload_cls, key, value, batches):
    """Serial, non-durable recompute of *batches* — the ground truth."""
    ref = ChronicleDatabase()
    try:
        workload = _catalog(ref, workload_cls, key, value)
        for batch in batches:
            ref.append(workload.NAME, batch)
        return _state(ref)
    finally:
        ref.close()


class _InjectedCrash(RuntimeError):
    """Raised by the fault-injection listener mid-maintenance."""


def _arm_crash(db):
    """Make the next admitted batch die during maintenance.

    The listener is subscribed after the registry's, so it fires once
    the batch has been admitted and (serially) maintained — but before
    the facade's commit point (and, on the sharded engine, before shard
    dispatch).  Either way the call raises, the batch never reaches the
    log, and recovery must bring back the acknowledged batches only.
    """

    def _boom(group, event):
        raise _InjectedCrash("injected maintenance crash")

    db.groups["default"].subscribe(_boom)


# ---------------------------------------------------------------------------
# Crash-recovery property: recovered state == serial recompute of the log
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    # Up to 24 batches at an interval of at most 3: every workload forms
    # snapshot chains of three or more deltas before the crash.
    @settings(max_examples=12, deadline=None)
    @given(
        workload_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
        engine=st.sampled_from(sorted(ENGINES)),
        committed=st.integers(min_value=1, max_value=24),
        interval=st.integers(min_value=1, max_value=3),
        crash=st.booleans(),
    )
    def test_recovered_state_equals_recompute(
        self, workload_index, engine, committed, interval, crash
    ):
        workload_cls, key, value = WORKLOADS[workload_index]
        records = list(workload_cls(seed=7).records(committed + 1))
        directory = tempfile.mkdtemp(prefix="repro-wal-")
        try:
            config = _config(directory, engine=engine, interval=interval)
            db = ChronicleDatabase.open(directory, config=config)
            workload = _catalog(db, workload_cls, key, value)
            for record in records[:committed]:
                db.append(workload.NAME, record)
            if crash:
                _arm_crash(db)
                with pytest.raises(_InjectedCrash):
                    db.append(workload.NAME, records[-1])
                db.durability.abort()
            else:
                db.close()
            # The raising batch was never acknowledged: it is not logged.
            expected = _reference(
                workload_cls, key, value, [[r] for r in records[:committed]]
            )

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnpartitionableViewWarning)
                recovered = ChronicleDatabase.open(directory, config=config)
            try:
                assert _state(recovered) == expected
                report = recovered.durability.last_recovery
                # Replay work is bounded by the snapshot interval: the
                # acknowledged batches since the last snapshot.  A clean
                # close snapshots everything.
                assert report.replayed_batches == (committed % interval if crash else 0)
            finally:
                recovered.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def test_cross_engine_recovery(self, tmp_path):
        """State written under one engine recovers under the other."""
        directory = str(tmp_path / "db")
        workload_cls, key, value = WORKLOADS[0]
        records = list(workload_cls(seed=7).records(8))

        sharded = _config(directory, engine="sharded-serial", interval=3)
        db = ChronicleDatabase.open(directory, config=sharded)
        workload = _catalog(db, workload_cls, key, value)
        for record in records[:7]:
            db.append(workload.NAME, record)
        _arm_crash(db)
        with pytest.raises(_InjectedCrash):
            db.append(workload.NAME, records[-1])
        db.durability.abort()
        acknowledged = records[:7]
        expected = _reference(workload_cls, key, value, [[r] for r in acknowledged])

        # Sharded crash -> serial recovery: the seventh acknowledged
        # batch sits in the tail past the last snapshot.
        serial = _config(directory, engine="serial", interval=3)
        recovered = ChronicleDatabase.open(directory, config=serial)
        assert _state(recovered) == expected
        assert recovered.durability.last_recovery.replayed_batches == 1
        recovered.close()

        # Serial close -> sharded recovery, which keeps ingesting.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnpartitionableViewWarning)
            again = ChronicleDatabase.open(directory, config=sharded)
        try:
            assert _state(again) == expected
            assert again.durability.last_recovery.replayed_batches == 0
            more = list(workload_cls(seed=11).records(3))
            for record in more:
                again.append(workload.NAME, record)
            expected_more = _reference(
                workload_cls, key, value, [[r] for r in acknowledged + more]
            )
            assert _state(again) == expected_more
        finally:
            again.close()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_replays_exactly_the_tail_past_the_last_snapshot(self, tmp_path, engine):
        """Recovery replays ``batches mod interval`` batches — no more —
        into the state of an uninterrupted run of the same stream."""
        interval, batches = 8, 2 * 8 + 5
        directory = str(tmp_path / "db")
        workload_cls, key, value = WORKLOADS[0]
        stream = workload_cls(seed=13)
        stream_batches = [list(stream.records(6)) for _ in range(batches)]
        config = _config(directory, engine=engine, interval=interval)
        db = ChronicleDatabase.open(directory, config=config)
        workload = _catalog(db, workload_cls, key, value)
        for batch in stream_batches:
            db.append(workload.NAME, batch)
        db.durability.abort()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnpartitionableViewWarning)
            recovered = ChronicleDatabase.open(directory, config=config)
        try:
            assert recovered.durability.last_recovery.replayed_batches == batches % interval
            assert _state(recovered) == _reference(workload_cls, key, value, stream_batches)
        finally:
            recovered.close()

    def test_wal_only_mode_replays_full_log(self, tmp_path):
        """With an interval no batch count reaches, the only snapshots are
        the view definitions', taken before the first batch: recovery
        rebuilds everything from batch 0 off the log."""
        directory = str(tmp_path / "db")
        workload_cls, key, value = WORKLOADS[1]
        records = list(workload_cls(seed=7).records(9))
        config = _config(directory, interval=1000)
        db = ChronicleDatabase.open(directory, config=config)
        workload = _catalog(db, workload_cls, key, value)
        for record in records:
            db.append(workload.NAME, record)
        db.durability.abort()

        recovered = ChronicleDatabase.open(directory, config=config)
        try:
            report = recovered.durability.last_recovery
            assert report.snapshot_watermark == -1
            assert report.replayed_batches == len(records)
            assert _state(recovered) == _reference(
                workload_cls, key, value, [[r] for r in records]
            )
        finally:
            recovered.close()

    def test_mid_stream_view_definition_recovers_history(self, tmp_path):
        """A view defined between snapshots materializes from chronicle
        history the truncated log cannot rebuild — the definition-time
        snapshot must capture it."""
        directory = str(tmp_path / "db")
        config = _config(directory, interval=100)
        db = ChronicleDatabase.open(directory, config=config)
        db.create_chronicle("t", [("k", "INT"), ("v", "INT")])
        for i in range(6):
            db.append("t", {"k": i % 2, "v": i + 1})
        chron = db.chronicle("t")
        db.define_view(
            GroupBySummary(scan(chron), ["k"], [spec(SUM, "v"), spec(COUNT)]),
            name="byk",
            materialize=True,
        )
        for i in range(3):
            db.append("t", {"k": i % 2, "v": 100})
        expected = sorted(tuple(r.values) for r in db.view("byk").rows())
        db.durability.abort()

        recovered = ChronicleDatabase.open(directory, config=config)
        try:
            got = sorted(tuple(r.values) for r in recovered.view("byk").rows())
            assert got == expected
            # Only the post-definition tail replays.
            assert recovered.durability.last_recovery.replayed_batches == 3
        finally:
            recovered.close()

    def test_relation_state_and_updates_recover(self, tmp_path):
        """Direct relation inserts survive via snapshots; proactive
        update_relation calls replay from the log tail."""
        directory = str(tmp_path / "db")
        config = _config(directory, interval=2)
        db = ChronicleDatabase.open(directory, config=config)
        db.create_chronicle("calls", [("number", "INT"), ("seconds", "INT")])
        db.create_relation(
            "subscribers", [("number", "INT"), ("state", "STR")], key=["number"]
        )
        db.relation("subscribers").insert({"number": 1, "state": "NJ"})
        for i in range(4):  # snapshot at batch 2 covers the insert
            db.append("calls", {"number": 1, "seconds": i})
        assert db.update_relation("subscribers", (1,), state="NY")
        db.append("calls", {"number": 1, "seconds": 60})
        db.durability.abort()

        recovered = ChronicleDatabase.open(directory, config=config)
        try:
            rows = [tuple(r.values) for r in recovered.relation("subscribers").rows()]
            assert rows == [(1, "NY")]
            assert recovered.durability.last_recovery.replayed_relation_updates == 1
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# One commit point per facade call: ingest windows under wal+snapshot
# ---------------------------------------------------------------------------


_COMMIT_VIEWS = ("usage", "by_plan")

#: ("ingest", batches) | ("append", batch) | ("update", key, plan), with
#: ingest windows both longer and shorter than the snapshot interval (3).
_COMMIT_OPS = (
    [("ingest", [[{"caller": c % 4, "minutes": c + 1}] for c in range(7)])]
    + [("append", [{"caller": 1, "minutes": 20}, {"caller": 2, "minutes": 30}])]
    + [("update", (1,), "gold")]
    + [("ingest", [[{"caller": 1, "minutes": 5}], [{"caller": 3, "minutes": 6}]])]
    + [("append", [{"caller": 0, "minutes": 2}]), ("append", [{"caller": 3, "minutes": 9}])]
    + [("ingest", [[{"caller": c % 3, "minutes": 10 * c + 1}] for c in range(4)])]
    + [("update", (3,), "basic")]
    + [("ingest", [[{"caller": 3, "minutes": 1}, {"caller": 1, "minutes": 1}]])]
)


#: One call from each of 60 callers that are not subscribers.
_WIDE = [[{"caller": c, "minutes": c % 9 + 1}] for c in range(4, 64)]


def _formats(directory):
    """The snapshot chain's format tags, read straight off the SQLite file."""
    conn = sqlite3.connect(wal_path(directory))
    try:
        rows = conn.execute("SELECT document FROM snapshots ORDER BY id").fetchall()
    finally:
        conn.close()
    return [json.loads(text)["format"] for (text,) in rows]


def _commit_catalog(db):
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
    db.create_relation("subscribers", [("number", "INT"), ("plan", "STR")], key=["number"])
    for number in range(4):
        db.relation("subscribers").insert({"number": number, "plan": "basic"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnpartitionableViewWarning)
        db.define_view(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total, COUNT(*) AS n "
            "FROM calls GROUP BY caller"
        )
        db.define_view(
            "DEFINE VIEW by_plan AS SELECT plan, SUM(minutes) AS total FROM calls "
            "JOIN subscribers ON calls.caller = subscribers.number GROUP BY plan"
        )


def _commit_state(db):
    return {
        name: sorted(tuple(row.values) for row in db.view(name).rows())
        for name in _COMMIT_VIEWS
    }


def _commit_apply(db, op, window=True):
    """Apply one op; *window*=False feeds an ingest batch by batch."""
    if op[0] == "update":
        assert db.update_relation("subscribers", op[1], plan=op[2])
    elif op[0] == "append" or window:
        getattr(db, op[0])("calls", op[1])
    else:
        for batch in op[1]:
            db.append("calls", batch)


class TestIngestCommitPoint:
    """``ingest`` is one durability commit point on every engine: at most
    one snapshot per call, taken once every shard absorbed the window —
    and the deltas among those snapshots (built from what the folds, or
    the parent-side absorbs of the process executor, recorded) recover
    the same state a full snapshot would."""

    @pytest.mark.parametrize(
        "engine",
        [
            {"engine": "serial"},
            {"engine": "sharded", "shards": 2, "executor": "serial"},
            {"engine": "sharded", "shards": 2, "executor": "process"},
        ],
        ids=["serial", "sharded-inline", "sharded-process"],
    )
    def test_windows_snapshot_once_and_recover(self, tmp_path, engine):
        directory = str(tmp_path / "db")
        config = DatabaseConfig(
            durability=DurabilityConfig(
                mode="wal+snapshot", dir=directory, fsync="off", snapshot_interval_batches=3
            ),
            **engine,
        )
        # The ground truth: a non-durable serial database fed batch by
        # batch, its view state remembered at every sequence number.
        reference = ChronicleDatabase()
        _commit_catalog(reference)
        at_watermark = {reference.group().watermark: _commit_state(reference)}
        db = ChronicleDatabase.open(directory, config=config)
        snapshots = []
        try:
            _commit_catalog(db)
            take = db.durability.snapshot

            def spy():
                stamped = take()
                snapshots.append((stamped, _commit_state(db), db.watermarks()))
                return stamped

            def caught_up(since):
                # No shard was still behind at a snapshot: every unit's
                # watermark it saw is the one the write returned with.
                for _, _, marks in snapshots[since:]:
                    assert marks == db.watermarks()

            db.durability.snapshot = spy
            # Callers beyond the four subscribers widen usage, so the base
            # outweighs the deltas after it and a chain forms.
            db.ingest("calls", _WIDE)
            caught_up(0)
            for batch in _WIDE:
                reference.append("calls", batch)
            at_watermark[reference.group().watermark] = _commit_state(reference)
            for op in _COMMIT_OPS:
                before = len(snapshots)
                _commit_apply(db, op)
                assert len(snapshots) - before <= 1, op[0]
                caught_up(before)
                if op[0] == "ingest":
                    for batch in op[1]:
                        reference.append("calls", batch)
                        at_watermark[reference.group().watermark] = _commit_state(reference)
                else:
                    _commit_apply(reference, op)
                    at_watermark[reference.group().watermark] = _commit_state(reference)
                assert _commit_state(db) == _commit_state(reference)
            # 7 + 1 + 2 + 2 + 4 + 1 = 17 logged batches at interval 3, but a
            # window is one commit point: the 7-batch one took one snapshot.
            assert 4 <= len(snapshots) <= 7
            for stamped, state, _ in snapshots:
                # What a snapshot holds is the state *at* its stamp.
                assert state == at_watermark[stamped]
            formats = _formats(directory)
            assert formats[0] == 1 and formats.count("delta-1") >= 2, formats
            db.durability.abort()  # crash: no final snapshot
        finally:
            db.close()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnpartitionableViewWarning)
            recovered = ChronicleDatabase.open(directory, config=config)
        try:
            assert _commit_state(recovered) == _commit_state(reference)
            assert recovered.group().watermark == reference.group().watermark
            more = ("ingest", [[{"caller": c, "minutes": 7}] for c in range(4)])
            _commit_apply(recovered, more)
            _commit_apply(reference, more, window=False)
            assert _commit_state(recovered) == _commit_state(reference)
        finally:
            recovered.close()
            reference.close()


# ---------------------------------------------------------------------------
# The snapshot chain: a base, deltas over it, and what forces a new base
# ---------------------------------------------------------------------------


_BY_PLAN = (
    "DEFINE VIEW by_plan AS SELECT plan, SUM(minutes) AS total FROM calls "
    "JOIN subscribers ON calls.caller = subscribers.number GROUP BY plan"
)


class _Twins:
    """A durable database (snapshot interval 2) and a non-durable
    reference, built alike and fed alike."""

    def __init__(self, directory):
        self.directory = directory
        self.config = _config(directory, interval=2)
        self.db = ChronicleDatabase.open(directory, config=self.config)
        self.reference = ChronicleDatabase()
        self.calls = 0
        self.kinds = []
        take = self.db.durability.snapshot

        def spy():
            stamped = take()
            self.kinds.append(self.db.durability.status()["chain_deltas"] and "delta" or "base")
            return stamped

        self.db.durability.snapshot = spy
        for db in self.both():
            _commit_catalog(db)
            db.ingest("calls", _WIDE)

    def both(self):
        return (self.db, self.reference)

    def call(self, caller=None):
        """One 1-record batch into both (the reference first: a snapshot
        failure raises after the durable database admitted the batch)."""
        self.calls += 1
        record = {"caller": self.calls % 4 if caller is None else caller, "minutes": self.calls % 11 + 1}
        self.reference.append("calls", [record])
        self.db.append("calls", [record])

    def until(self, predicate, limit=400):
        """Feed calls until ``predicate(status)`` holds."""
        for _ in range(limit):
            if predicate(self.db.durability.status()):
                return
            self.call()
        raise AssertionError("the chain never reached the expected shape")

    def crash_and_reopen(self):
        self.db.durability.abort()
        self.db = ChronicleDatabase.open(self.directory, config=self.config)
        return self.db.durability.last_recovery

    def assert_equal(self):
        db, reference = self.both()
        for name in db.registry._views:
            assert sorted(r.values for r in db.view(name).rows()) == sorted(
                r.values for r in reference.view(name).rows()
            ), name
        assert sorted(db.registry._views) == sorted(reference.registry._views)
        assert sorted(r.values for r in db.relation("subscribers").rows()) == sorted(
            r.values for r in reference.relation("subscribers").rows()
        )
        assert db.group().watermark == reference.group().watermark

    def close(self):
        self.db.close()
        self.reference.close()


@pytest.fixture
def twins(tmp_path):
    pair = _Twins(str(tmp_path / "db"))
    yield pair
    pair.close()


class TestSnapshotChain:
    def test_crash_after_deltas_before_the_next_base(self, twins):
        twins.until(lambda status: status["chain_deltas"] >= 3)
        twins.call()  # a log tail past the last delta
        formats = _formats(twins.directory)
        assert formats[0] == 1 and set(formats[1:]) == {"delta-1"} and len(formats) >= 4
        report = twins.crash_and_reopen()
        assert report.replayed_batches == 1
        twins.assert_equal()
        assert twins.db.durability.status()["chain_deltas"] == len(formats) - 1
        # What was restored is not being recorded: the next snapshot is a
        # base, and the chain grows from it.
        twins.until(lambda status: status["batches_since_snapshot"] == 0)
        assert _formats(twins.directory) == [1]
        twins.until(lambda status: status["chain_deltas"] >= 1)
        twins.assert_equal()

    def test_crash_right_after_a_compaction_base(self, twins):
        twins.until(lambda status: status["chain_deltas"] >= 1)
        twins.until(lambda status: status["chain_deltas"] == 0)
        assert twins.kinds[-2:] == ["delta", "base"]  # the ratio, not a DDL
        assert _formats(twins.directory) == [1]
        assert twins.crash_and_reopen().replayed_batches == 0
        twins.assert_equal()

    def test_failed_base_rolls_back_and_the_old_chain_recovers(self, twins):
        twins.until(lambda status: status["chain_deltas"] >= 2)
        chain = _formats(twins.directory)
        # Refuse any snapshot insert that follows the chain's deletion —
        # that is, a base — inside the snapshot's own transaction.
        twins.db.durability.wal._conn.execute(
            "CREATE TEMP TRIGGER refuse_base BEFORE INSERT ON snapshots"
            " WHEN (SELECT COUNT(*) FROM snapshots) = 0"
            " BEGIN SELECT RAISE(ABORT, 'injected base failure'); END"
        )
        for db in twins.both():
            db.drop_view("by_plan")  # a catalog change: the next snapshot is a base
        with pytest.raises(sqlite3.IntegrityError, match="injected"):
            twins.until(lambda status: False, limit=2)
        assert _formats(twins.directory) == chain
        assert twins.db.durability.status()["batches_since_snapshot"] == 2
        report = twins.crash_and_reopen()
        assert report.replayed_batches == 2 and report.replayed_ddl >= 1
        twins.assert_equal()

    def test_a_failed_delta_is_followed_by_a_base(self, twins):
        twins.until(lambda status: status["chain_deltas"] >= 1)
        twins.db.durability.wal._conn.execute(
            "CREATE TEMP TRIGGER refuse_all BEFORE INSERT ON snapshots"
            " BEGIN SELECT RAISE(ABORT, 'injected delta failure'); END"
        )
        with pytest.raises(sqlite3.IntegrityError, match="injected"):
            twins.until(lambda status: False, limit=2)
        twins.db.durability.wal._conn.execute("DROP TRIGGER refuse_all")
        # The failed delta took the folds' records with it.
        twins.until(lambda status: status["batches_since_snapshot"] == 0)
        assert _formats(twins.directory) == [1]
        twins.crash_and_reopen()
        twins.assert_equal()

    def test_corrupt_delta_row_fails_loudly(self, twins):
        twins.until(lambda status: status["chain_deltas"] >= 2)
        twins.db.durability.abort()
        conn = sqlite3.connect(wal_path(twins.directory))
        conn.execute(
            "UPDATE snapshots SET document = substr(document, 1, 40)"
            " WHERE id = (SELECT MAX(id) FROM snapshots)"
        )
        conn.commit()
        conn.close()
        with pytest.raises(RecoveryError, match="corrupt snapshot"):
            ChronicleDatabase.open(twins.directory, config=twins.config)
        assert os.path.exists(os.path.join(twins.directory, "recovery-failure.json"))

    def test_chain_must_start_with_a_base(self, twins):
        twins.until(lambda status: status["chain_deltas"] >= 1)
        twins.db.durability.abort()
        conn = sqlite3.connect(wal_path(twins.directory))
        conn.execute("DELETE FROM snapshots WHERE id = (SELECT MIN(id) FROM snapshots)")
        conn.commit()
        conn.close()
        with pytest.raises(RecoveryError, match="malformed"):
            ChronicleDatabase.open(twins.directory, config=twins.config)

    @pytest.mark.parametrize("change", ["drop", "redefine", "restore"])
    def test_changes_outside_the_folds_force_a_base(self, twins, tmp_path, change):
        twins.until(lambda status: status["chain_deltas"] >= 1)
        checkpoint = str(tmp_path / "state.ckpt")
        twins.db.checkpoint(checkpoint)
        twins.until(lambda status: status["chain_deltas"] >= 2)
        kinds = len(twins.kinds)
        for db in twins.both():
            if change == "drop":
                db.drop_view("by_plan")
            elif change == "redefine":
                db.drop_view("by_plan")
                db.define_view(_BY_PLAN)
            else:  # back to the checkpoint: state the recorders never saw
                db.restore(checkpoint)
        twins.until(lambda status: len(twins.kinds) > kinds)
        assert twins.kinds[kinds] == "base"
        twins.call()
        twins.crash_and_reopen()
        twins.assert_equal()

    def test_relation_row_inserted_after_the_base_survives(self, twins):
        twins.until(lambda status: status["chain_deltas"] >= 1)
        twins.until(lambda status: status["chain_deltas"] == 0)  # just after a base
        for db in twins.both():
            db.relation("subscribers").insert({"number": 9, "plan": "gold"})
            db.relation("subscribers").delete_key((2,))
        twins.call(caller=9)
        twins.until(lambda status: status["batches_since_snapshot"] == 0)
        assert _formats(twins.directory)[-1] == "delta-1"
        twins.crash_and_reopen()
        twins.assert_equal()
        twins.call(caller=9)  # joins the recovered row
        twins.assert_equal()

    def test_metrics_and_status_describe_the_chain(self, twins):
        obs = twins.db.enable_observability()
        seen = len(twins.kinds)
        try:
            twins.until(lambda status: status["chain_deltas"] >= 2)
            twins.until(lambda status: status["chain_deltas"] == 0)
            twins.until(lambda status: status["chain_deltas"] >= 2)
            status = twins.db.durability.status()
            conn = sqlite3.connect(wal_path(twins.directory))
            sizes = [n for (n,) in conn.execute("SELECT length(document) FROM snapshots ORDER BY id")]
            conn.close()
            assert status["chain_base_bytes"] == sizes[0]
            assert status["chain_delta_bytes"] == sum(sizes[1:])
            assert status["chain_deltas"] == len(sizes) - 1
            metrics, kinds = obs.metrics, twins.kinds[seen:]
            assert metrics.value("snapshots_total", kind="base") == kinds.count("base")
            assert metrics.value("snapshots_total", kind="delta") == kinds.count("delta")
            assert metrics.value("snapshot_bytes", kind="delta") == sizes[-1]
        finally:
            twins.db.disable_observability()

    def test_text_periodic_view_expiring_between_deltas(self, tmp_path):
        from repro.errors import ViewExpiredError

        directory = str(tmp_path / "db")
        config = _config(directory, interval=2)
        periodic = (
            "DEFINE PERIODIC VIEW monthly OVER EVERY 30 EXPIRE AFTER 0 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        db = ChronicleDatabase.open(directory, config=config)
        reference = ChronicleDatabase()
        twins = (db, reference)
        for target in twins:
            target.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")])
            target.define_view(periodic)
            # A wide first month, so the base outweighs the deltas after it.
            target.append("calls", [(c, 1, 0) for c in range(60)])
        days = [1, 2, 8, 9, 15, 16, 22, 23, 29, 31, 32, 40, 41, 45]
        expired_in = None
        for n, day in enumerate(days):
            for target in twins:
                target.append("calls", [(n % 5, n + 1, day)])
            if day == 31:
                expired_in = len(_formats(directory))
        formats = _formats(directory)
        # The expiry (day 31 ends month 0) fell between two deltas.
        assert formats[0] == 1
        assert formats[expired_in - 1:] == ["delta-1"] * (len(formats) - expired_in + 1)
        assert len(formats) > expired_in
        db.durability.abort()
        recovered = ChronicleDatabase.open(directory, config=config)
        try:
            got, want = recovered.periodic_view("monthly"), reference.periodic_view("monthly")
            assert got.active_indices() == want.active_indices() == [1]
            for index in want.active_indices():
                assert sorted(r.values for r in got[index].rows()) == sorted(
                    r.values for r in want[index].rows()
                )
            with pytest.raises(ViewExpiredError):
                got[0]
            assert got._clock == want._clock
        finally:
            recovered.close()
            reference.close()


# ---------------------------------------------------------------------------
# kill -9: a live ingesting process dies; the log is the ground truth
# ---------------------------------------------------------------------------


_CHILD = textwrap.dedent(
    """
    import sys
    import warnings

    from repro import BankingWorkload, ChronicleDatabase, DatabaseConfig, DurabilityConfig
    from repro.aggregates import COUNT, SUM, spec
    from repro.algebra.ast import scan
    from repro.parallel import UnpartitionableViewWarning
    from repro.sca.summarize import GroupBySummary


    def main():
        directory, executor = sys.argv[1], sys.argv[2]
        config = DatabaseConfig(
            engine="sharded",
            shards=2,
            executor=executor,
            durability=DurabilityConfig(
                mode="wal+snapshot",
                dir=directory,
                fsync="always",
                snapshot_interval_batches=1_000_000,
            ),
        )
        db = ChronicleDatabase.open(directory, config=config)
        workload = BankingWorkload(seed=7)
        db.create_chronicle(workload.NAME, workload.CHRONICLE_SCHEMA)
        chron = db.chronicle(workload.NAME)
        db.define_view(
            GroupBySummary(scan(chron), ["acct"], [spec(SUM, "cents"), spec(COUNT)]),
            name="by_key",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnpartitionableViewWarning)
            db.define_view(
                GroupBySummary(scan(chron), [], [spec(SUM, "cents"), spec(COUNT)]),
                name="grand",
            )
        for n in range(100000):
            db.append(workload.NAME, list(workload.records(4)))
            print(f"BATCH {n}", flush=True)


    if __name__ == "__main__":
        main()
    """
)


class TestKillNine:
    def _run(self, tmp_path, executor, kill_after):
        directory = str(tmp_path / "db")
        script = tmp_path / "child.py"
        script.write_text(_CHILD)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script), directory, executor],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        seen = 0
        try:
            for line in proc.stdout:
                if line.startswith("BATCH"):
                    seen += 1
                    if seen >= kill_after:
                        break
            assert seen >= kill_after, proc.stderr.read()
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # Count durably committed batches straight off the SQLite file —
        # independent of the WAL reader under test.  fsync="always" in
        # the child means every printed BATCH line is on disk.
        conn = sqlite3.connect(wal_path(directory))
        try:
            logged = conn.execute(
                "SELECT COUNT(*) FROM log WHERE kind = 'batch'"
            ).fetchone()[0]
        finally:
            conn.close()
        assert logged >= seen

        config = _config(directory, interval=1_000_000)
        db = ChronicleDatabase.open(directory, config=config)
        try:
            assert db.durability.last_recovery.replayed_batches == logged
            (grand,) = db.view("grand").rows()
            grand_sum, grand_count = grand.values
            assert grand_count == logged * 4
            by_key = list(db.view("by_key").rows())
            assert sum(row.values[-1] for row in by_key) == grand_count
            assert sum(row.values[-2] for row in by_key) == grand_sum
            # The reopened database keeps ingesting where the log ends.
            db.append("transactions", list(BankingWorkload(seed=11).records(4)))
            (grand,) = db.view("grand").rows()
            assert grand.values[-1] == (logged + 1) * 4
        finally:
            db.close()

    def test_kill9_inline_executor(self, tmp_path):
        self._run(tmp_path, "serial", kill_after=6)

    def test_kill9_process_executor(self, tmp_path):
        self._run(tmp_path, "process", kill_after=4)


# ---------------------------------------------------------------------------
# A directory written before snapshot chains existed still opens
# ---------------------------------------------------------------------------


_PARENT_DDL = (
    "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total, COUNT(*) AS n "
    "FROM calls GROUP BY caller",
    "DEFINE VIEW long_calls AS SELECT caller, MAX(minutes) AS longest FROM calls "
    "WHERE minutes > 10 GROUP BY caller",
    _BY_PLAN,
    "DEFINE PERIODIC VIEW monthly OVER EVERY 30 EXPIRE AFTER 30 BY day AS "
    "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller",
)
#: ("append", records) | ("update", key, plan); the first seven are what
#: the directory below holds.
_PARENT_OPS = (
    ("append", [(1, 5, 3), (2, 12, 4)]),
    ("append", [(3, 30, 10)]),
    ("update", (2,), "gold"),
    ("append", [(1, 11, 20), (3, 2, 25)]),
    ("append", [(2, 40, 31)]),
    ("append", [(1, 7, 33)]),
    ("append", [(3, 15, 62)]),  # expires month 0
    ("append", [(1, 3, 70), (2, 50, 71)]),
    ("update", (3,), "gold"),
    ("append", [(3, 9, 95)]),
) + tuple(("append", [(c % 3 + 1, c, 96 + c)]) for c in range(9))

#: A crashed ``wal+snapshot`` directory in the single-snapshot layout that
#: builds before snapshot chains wrote, row for row (serial engine,
#: interval 4, ``_PARENT_OPS[:7]`` applied): the tables, the log rows left
#: after the snapshot truncated the covered tail, and the one snapshot.
_PARENT_TABLES = (
    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)",
    "CREATE TABLE log ( id INTEGER PRIMARY KEY AUTOINCREMENT, kind TEXT NOT NULL,"
    " watermark INTEGER NOT NULL, payload BLOB NOT NULL)",
    "CREATE TABLE snapshots ( id INTEGER PRIMARY KEY AUTOINCREMENT, log_id INTEGER NOT NULL,"
    " watermark INTEGER NOT NULL, document TEXT NOT NULL)",
)
_PARENT_META = (("periodic_clock:monthly", "62.0"), ("schema_version", "1"))
_PARENT_LOG = (
    (1, "ddl", -1, ("group", "default", 0)),
    (2, "ddl", -1, ("chronicle", "calls", ((("sn", "SEQ", False), ("caller", "INT", False),
                                            ("minutes", "INT", False), ("day", "INT", False)),
                                           None, "sn"), None, "default")),
    (3, "ddl", -1, ("relation", "subscribers", ((("number", "INT", False), ("plan", "STR", False)),
                                                ("number",), None), "default", True)),
) + tuple((4 + i, "ddl", -1, ("view_text", None, text, True)) for i, text in enumerate(_PARENT_DDL)) + (
    (13, "batch", 4, ("default", {"calls": [(4, 1, 7, 33)]})),
    (14, "batch", 5, ("default", {"calls": [(5, 3, 15, 62)]})),
)
_PARENT_SNAPSHOT = (
    5,
    12,
    3,
    '{"format": 1, "groups": {"default": {"watermark": 3}}, "relations": {"subscribers": '
    '[{"__tuple__": [1, "basic"]}, {"__tuple__": [2, "gold"]}, {"__tuple__": [3, "basic"]}]}, '
    '"views": {"usage": {"state": [[{"__tuple__": [1]}, [16, 2]], [{"__tuple__": [2]}, [52, 2]], '
    '[{"__tuple__": [3]}, [32, 2]]], "maintenance_count": 4}, "long_calls": {"state": '
    '[[{"__tuple__": [1]}, [11]], [{"__tuple__": [2]}, [40]], [{"__tuple__": [3]}, [30]]], '
    '"maintenance_count": 4}, "by_plan": {"state": [[{"__tuple__": ["basic"]}, [60]], '
    '[{"__tuple__": ["gold"]}, [40]]], "maintenance_count": 4}}, "periodic": {"monthly": '
    '{"clock": 31.0, "expired": [], "instantiated": 2, "views": {"0": {"state": '
    '[[{"__tuple__": [1]}, [16]], [{"__tuple__": [2]}, [12]], [{"__tuple__": [3]}, [32]]], '
    '"maintenance_count": 3}, "1": {"state": [[{"__tuple__": [2]}, [40]]], '
    '"maintenance_count": 1}}}}, "watermarks": {"serial/default": 3}}',
)


def _parent_catalog(db):
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")])
    db.create_relation("subscribers", [("number", "INT"), ("plan", "STR")], key=["number"])
    for number in (1, 2, 3):
        db.relation("subscribers").insert({"number": number, "plan": "basic"})
    for text in _PARENT_DDL:
        db.define_view(text)


def _parent_state(db):
    monthly = db.periodic_view("monthly")
    return {
        "views": {
            name: sorted(r.values for r in db.view(name).rows())
            for name in ("usage", "long_calls", "by_plan")
        },
        "monthly": {i: sorted(r.values for r in v.rows()) for i, v in monthly.active_views()},
        "expired": sorted(monthly._expired),
        "subscribers": sorted(r.values for r in db.relation("subscribers").rows()),
        "watermark": db.group().watermark,
    }


class TestPreChainDirectory:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_opens_to_identical_rows_and_keeps_ingesting(self, tmp_path, engine):
        directory = str(tmp_path / "db")
        os.makedirs(directory)
        conn = sqlite3.connect(wal_path(directory))
        for statement in _PARENT_TABLES:
            conn.execute(statement)
        conn.executemany("INSERT INTO meta VALUES (?, ?)", _PARENT_META)
        conn.executemany(
            "INSERT INTO log VALUES (?, ?, ?, ?)",
            [(i, kind, mark, pickle.dumps(payload)) for i, kind, mark, payload in _PARENT_LOG],
        )
        conn.execute("INSERT INTO snapshots VALUES (?, ?, ?, ?)", _PARENT_SNAPSHOT)
        conn.commit()
        conn.close()

        reference = ChronicleDatabase()
        _parent_catalog(reference)

        def apply(db, op):
            if op[0] == "append":
                db.append("calls", op[1])
            else:
                assert db.update_relation("subscribers", op[1], plan=op[2])

        for op in _PARENT_OPS[:7]:
            apply(reference, op)
        config = _config(directory, engine=engine, interval=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnpartitionableViewWarning)
            db = ChronicleDatabase.open(directory, config=config)
        try:
            assert db.durability.last_recovery.replayed_batches == 2
            assert _parent_state(db) == _parent_state(reference)
            for op in _PARENT_OPS[7:]:
                apply(db, op)
                apply(reference, op)
            assert _parent_state(db) == _parent_state(reference)
            assert "delta-1" in _formats(directory)
            db.durability.abort()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnpartitionableViewWarning)
                db = ChronicleDatabase.open(directory, config=config)
            assert _parent_state(db) == _parent_state(reference)
        finally:
            db.close()
            reference.close()


# ---------------------------------------------------------------------------
# The log's own ids, its page size, and one transaction per ingest window
# ---------------------------------------------------------------------------


def _log_rows(directory):
    """``(id, kind, watermark, payload)`` of every log row, off the file."""
    conn = sqlite3.connect(wal_path(directory))
    try:
        rows = conn.execute("SELECT id, kind, watermark, payload FROM log ORDER BY id").fetchall()
    finally:
        conn.close()
    return [(i, kind, mark, pickle.loads(blob)) for i, kind, mark, blob in rows]


def _reopen(directory, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnpartitionableViewWarning)
        return ChronicleDatabase.open(directory, config=config)


class TestLogIds:
    def test_truncated_batch_id_is_not_reused(self, tmp_path):
        """A snapshot truncates a tail ending in a batch; the next batch
        must get an id above the one the snapshot covers, or recovery
        (which replays ids above it) would skip it."""
        directory = str(tmp_path / "db")
        config = _config(directory, interval=3)
        db = ChronicleDatabase.open(directory, config=config)
        reference = ChronicleDatabase()
        try:
            for target in (db, reference):
                _commit_catalog(target)
                for caller in range(3):  # the third append snapshots
                    target.append("calls", [{"caller": caller, "minutes": 4}])
            assert db.durability.status()["batches_since_snapshot"] == 0
            covered = db.durability.wal.snapshot_chain()[-1].log_id
            assert max(row[0] for row in _log_rows(directory)) < covered
            for target in (db, reference):
                target.append("calls", [{"caller": 1, "minutes": 9}])
            assert [row[0] for row in _log_rows(directory)][-1] == covered + 1
            db.durability.abort()
            db = _reopen(directory, config)
            assert db.durability.last_recovery.replayed_batches == 1
            assert _commit_state(db) == _commit_state(reference)
        finally:
            db.close()
            reference.close()

    def test_version_1_directory_opens_and_continues(self, tmp_path):
        """A directory in the version 1 layout (AUTOINCREMENT log ids,
        4 KiB pages) opens, replays, and keeps appending above its ids."""
        written = str(tmp_path / "written")
        config = _config(written, interval=3)
        db = ChronicleDatabase.open(written, config=config)
        reference = ChronicleDatabase()
        ops = [("append", [{"caller": c % 4, "minutes": c + 1}]) for c in range(7)]
        ops.insert(4, ("update", (2,), "gold"))
        for target in (db, reference):
            _commit_catalog(target)
            for op in ops:
                _commit_apply(target, op)
        db.durability.abort()

        # The same rows, rebuilt in the version 1 layout.
        directory = str(tmp_path / "v1")
        os.makedirs(directory)
        source = sqlite3.connect(wal_path(written))
        meta = source.execute("SELECT key, value FROM meta").fetchall()
        log = source.execute("SELECT * FROM log").fetchall()
        snapshots = source.execute("SELECT * FROM snapshots").fetchall()
        source.close()
        conn = sqlite3.connect(wal_path(directory))
        conn.execute("PRAGMA page_size=4096")
        conn.execute("PRAGMA journal_mode=WAL")
        for statement in _PARENT_TABLES:
            conn.execute(statement)
        conn.executemany("INSERT INTO meta VALUES (?, ?)", meta)
        conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
        conn.executemany("INSERT INTO log VALUES (?, ?, ?, ?)", log)
        conn.executemany("INSERT INTO snapshots VALUES (?, ?, ?, ?)", snapshots)
        # AUTOINCREMENT remembers the truncated tail's ids too.
        last = max(snapshot[1] for snapshot in snapshots)
        conn.execute("UPDATE sqlite_sequence SET seq = MAX(seq, ?) WHERE name = 'log'", (last,))
        conn.commit()
        conn.close()
        old_ids = [row[0] for row in _log_rows(directory)]

        config = _config(directory, interval=3)
        try:
            db = _reopen(directory, config)
            assert db.durability.last_recovery.replayed_batches == 1
            assert _commit_state(db) == _commit_state(reference)
            more = [("append", [{"caller": 5, "minutes": 2}]), ("update", (1,), "gold")]
            for op in more:  # two rows, below the snapshot interval
                _commit_apply(db, op)
                _commit_apply(reference, op)
            new_ids = [row[0] for row in _log_rows(directory)][len(old_ids):]
            assert len(new_ids) == 2 and min(new_ids) > max(old_ids + [last])
            window = ("ingest", [[{"caller": c, "minutes": 3}] for c in range(3)])
            _commit_apply(db, window)  # snapshots into the version 1 chain
            _commit_apply(reference, window, window=False)
            db.durability.abort()
            conn = sqlite3.connect(wal_path(directory))
            try:
                assert conn.execute("PRAGMA page_size").fetchone() == (4096,)
                assert conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone() == ("1",)
            finally:
                conn.close()
            db = _reopen(directory, config)
            assert _commit_state(db) == _commit_state(reference)
            assert sorted(r.values for r in db.relation("subscribers").rows()) == sorted(
                r.values for r in reference.relation("subscribers").rows()
            )
        finally:
            db.close()
            reference.close()

    def test_new_file_is_version_2_with_small_pages(self, tmp_path):
        directory = str(tmp_path / "db")
        ChronicleWal(directory, fsync="off").close()
        conn = sqlite3.connect(wal_path(directory))
        try:
            assert conn.execute("PRAGMA page_size").fetchone() == (PAGE_SIZE,)
            assert conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone() == (str(SCHEMA_VERSION),)
        finally:
            conn.close()
        assert (PAGE_SIZE, SCHEMA_VERSION) == (1024, 2)

    def test_one_page_per_one_batch_commit(self, tmp_path):
        """N one-batch appends add at most 1.25·N frames to SQLite's WAL
        file (one leaf page each, plus the leaf splits); with 4 KiB pages
        and an AUTOINCREMENT counter page it was about 2·N."""
        directory = str(tmp_path / "db")
        db = ChronicleDatabase.open(directory, config=_config(directory, interval=1000))
        try:
            _commit_catalog(db)
            db.flush()
            appends = 200
            for n in range(appends):
                db.append("calls", [{"caller": n % 4, "minutes": n % 11 + 1}])
            _, frames, _ = db.durability.wal._conn.execute(
                "PRAGMA wal_checkpoint(PASSIVE)"
            ).fetchone()
            assert appends <= frames <= 1.25 * appends
        finally:
            db.close()


class TestIngestWindowTransaction:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_one_commit_per_window_and_recovery(self, tmp_path, engine):
        directory = str(tmp_path / "db")
        # Snapshots carry the directly inserted subscribers; none is due
        # during the test.
        config = _config(directory, engine=engine, interval=1000)
        db = _reopen(directory, config)
        reference = ChronicleDatabase()
        statements = []
        try:
            for target in (db, reference):
                _commit_catalog(target)
            db.durability.wal._conn.set_trace_callback(statements.append)
            window = [[{"caller": c % 5, "minutes": c + 1}] for c in range(6)]
            db.ingest("calls", window)
            db.durability.wal._conn.set_trace_callback(None)
            assert [s for s in statements if not s.startswith("INSERT")] == ["BEGIN", "COMMIT"]
            assert len(statements) == 2 + len(window)
            _commit_apply(reference, ("ingest", window), window=False)
            for op in _COMMIT_OPS:
                _commit_apply(db, op)
                _commit_apply(reference, op, window=False)
            db.durability.abort()
            db = _reopen(directory, config)
            assert _commit_state(db) == _commit_state(reference)
            assert db.group().watermark == reference.group().watermark
        finally:
            db.close()
            reference.close()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_raising_window_logs_what_per_batch_commits_log(self, tmp_path, engine):
        """Maintenance raises on the third batch of five.  A window is one
        commit point, so the raising window logs none of its batches;
        appends commit one by one, so the two that returned are logged.
        Either way recovery replays exactly the acknowledged batches."""
        window = [[{"caller": c, "minutes": c + 1}] for c in range(5)]
        for feed, acknowledged in (("ingest", 0), ("append", 2)):
            directory = str(tmp_path / feed)
            config = _config(directory, engine=engine, interval=1000)
            db = _reopen(directory, config)
            try:
                _commit_catalog(db)
                seen = []

                def third_raises(group, event):
                    seen.append(event)
                    if len(seen) == 3:
                        raise _InjectedCrash("injected maintenance failure")

                db.groups["default"].subscribe(third_raises)
                with pytest.raises(_InjectedCrash):
                    if feed == "ingest":
                        db.ingest("calls", window)
                    else:
                        for batch in window:
                            db.append("calls", batch)
                assert not db.durability.wal._conn.in_transaction
            finally:
                db.durability.abort()
            logged = [row[1] for row in _log_rows(directory)].count("batch")
            assert logged == acknowledged, feed
            recovered = _reopen(directory, config)
            reference = ChronicleDatabase()
            try:
                _commit_catalog(reference)
                for batch in window[:acknowledged]:
                    reference.append("calls", batch)
                assert recovered.durability.last_recovery.replayed_batches == acknowledged
                assert _commit_state(recovered) == _commit_state(reference)
                assert recovered.group().watermark == reference.group().watermark
            finally:
                recovered.close()
                reference.close()


# ---------------------------------------------------------------------------
# Recovery failure: corrupt log -> RecoveryError + incident bundle
# ---------------------------------------------------------------------------


class TestRecoveryFailure:
    def test_corrupt_log_entry(self, tmp_path):
        directory = str(tmp_path / "db")
        config = _config(directory, interval=1000)
        db = ChronicleDatabase.open(directory, config=config)
        db.create_chronicle("t", [("k", "INT")])
        for i in range(3):
            db.append("t", {"k": i})
        db.durability.abort()

        conn = sqlite3.connect(wal_path(directory))
        conn.execute(
            "UPDATE log SET payload = X'DEADBEEF' WHERE kind = 'batch' "
            "AND id = (SELECT MAX(id) FROM log WHERE kind = 'batch')"
        )
        conn.commit()
        conn.close()

        with pytest.raises(RecoveryError):
            ChronicleDatabase.open(directory, config=config)
        assert os.path.exists(os.path.join(directory, "recovery-failure.json"))

    def test_schema_version_mismatch(self, tmp_path):
        directory = str(tmp_path / "db")
        config = _config(directory)
        ChronicleDatabase.open(directory, config=config).close()
        conn = sqlite3.connect(wal_path(directory))
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(WalError, match="schema"):
            ChronicleDatabase.open(directory, config=config)


# ---------------------------------------------------------------------------
# Lifecycle: open/flush/close, construction guard, zero-cost off mode
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_open_promotes_off_mode(self, tmp_path):
        directory = str(tmp_path / "db")
        db = ChronicleDatabase.open(directory)
        try:
            manager = db.durability
            assert manager is not None
            assert manager.config.mode == "wal+snapshot"
            assert manager.config.dir == directory
            assert os.path.exists(wal_path(directory))
        finally:
            db.close()

    def test_open_overrides_configured_dir(self, tmp_path):
        directory = str(tmp_path / "actual")
        elsewhere = str(tmp_path / "ignored")
        config = DatabaseConfig(
            durability=DurabilityConfig(mode="wal+snapshot", dir=elsewhere)
        )
        db = ChronicleDatabase.open(directory, config=config)
        try:
            assert db.durability.config.dir == directory
            assert not os.path.exists(elsewhere)
        finally:
            db.close()

    def test_constructor_refuses_existing_state(self, tmp_path):
        directory = str(tmp_path / "db")
        config = _config(directory)
        db = ChronicleDatabase.open(directory, config=config)
        db.create_chronicle("t", [("k", "INT")])
        db.close()
        with pytest.raises(WalError, match="open it with"):
            ChronicleDatabase(config=config)
        # open() remains the sanctioned route.
        ChronicleDatabase.open(directory, config=config).close()

    def test_close_is_idempotent_and_final(self, tmp_path):
        directory = str(tmp_path / "db")
        db = ChronicleDatabase.open(directory, config=_config(directory))
        db.create_chronicle("t", [("k", "INT")])
        db.append("t", {"k": 1})
        manager = db.durability
        db.close()
        db.close()
        assert manager.closed
        # A write after close() still maintains the views but adds no
        # log row.
        rows = _log_rows(directory)
        db.append("t", {"k": 2})
        assert db.chronicle("t").appended_count == 2
        assert _log_rows(directory) == rows

    def test_flush_and_status(self, tmp_path):
        directory = str(tmp_path / "db")
        db = ChronicleDatabase.open(directory, config=_config(directory, interval=50))
        try:
            db.create_chronicle("t", [("k", "INT")])
            db.append("t", {"k": 1})
            db.flush()
            status = db.durability.status()
            assert status["mode"] == "wal+snapshot"
            assert status["dir"] == directory
            assert status["closed"] is False
            assert status["batches_since_snapshot"] == 1
            assert status["log_rows"] >= 2  # ddl + batch
        finally:
            db.close()

    def test_off_mode_is_zero_cost(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a write reached the durability layer")

        for name in ("batch_committed", "admission_sink"):
            monkeypatch.setattr(DurabilityManager, name, unreachable)
        db = ChronicleDatabase()
        try:
            assert db.durability is None
            db.create_chronicle("t", [("k", "INT")])
            db.append("t", {"k": 1})
            db.ingest("t", [{"k": 2}, {"k": 3}])
            db.flush()  # no-op, no error
        finally:
            db.close()
        # Nor does a write after close().
        db.append("t", {"k": 4})
        assert db.chronicle("t").appended_count == 4

    def test_open_database_rejects_off_mode(self):
        from repro.storage.durability import open_database

        with pytest.raises(WalError):
            open_database(DatabaseConfig())

    def test_clean_reopen_replays_nothing(self, tmp_path):
        directory = str(tmp_path / "db")
        config = _config(directory, interval=2)
        db = ChronicleDatabase.open(directory, config=config)
        db.create_chronicle("t", [("k", "INT"), ("v", "INT")])
        for i in range(5):
            db.append("t", {"k": i % 2, "v": i})
        db.close()

        reopened = ChronicleDatabase.open(directory, config=config)
        try:
            report = reopened.durability.last_recovery
            assert report.replayed_batches == 0
            assert report.snapshot_watermark == 4
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# NonDurableWarning: state the log cannot carry
# ---------------------------------------------------------------------------


class TestNonDurable:
    def test_custom_chronon_group_warns(self, tmp_path):
        db = ChronicleDatabase.open(str(tmp_path / "db"))
        try:
            with pytest.warns(NonDurableWarning, match="chronon"):
                db.create_group("monthly", chronons=lambda instant: 1)
        finally:
            db.close()

    def test_periodic_view_warns(self, tmp_path):
        from repro import monthly

        db = ChronicleDatabase.open(str(tmp_path / "db"))
        try:
            db.create_chronicle(
                "calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")]
            )
            with pytest.warns(NonDurableWarning, match="periodic"):
                db.define_periodic_view(
                    "usage",
                    "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
                    "FROM calls GROUP BY caller",
                    monthly(month_length=30),
                    chronon_of=lambda row: float(row["day"]),
                )
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Periodic-view clocks survive a crash (WAL meta table)
# ---------------------------------------------------------------------------


class TestPeriodicClockRecovery:
    def _define(self, db):
        from repro import monthly

        with pytest.warns(NonDurableWarning, match="clock resumes"):
            return db.define_periodic_view(
                "usage",
                "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
                "FROM calls GROUP BY caller",
                monthly(month_length=30),
                chronon_of=lambda row: float(row["day"]),
            )

    def test_clock_resumes_after_crash(self, tmp_path):
        directory = str(tmp_path / "db")
        db = ChronicleDatabase.open(directory)
        db.create_chronicle(
            "calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")]
        )
        view_set = self._define(db)
        db.append("calls", [(1, 10, 5)])
        db.append("calls", [(2, 3, 47)])
        assert view_set._clock == 47.0
        db.durability.abort()  # crash: no final snapshot, no clean close

        reopened = ChronicleDatabase.open(directory)
        try:
            # Re-defining the programmatic view resumes its cadence from
            # the persisted clock instead of a blank one.
            redefined = self._define(reopened)
            assert redefined._clock == 47.0
            # The clock keeps advancing normally from there.
            reopened.append("calls", [(3, 1, 95)])
            assert redefined._clock == 95.0
        finally:
            reopened.close()

    def test_text_defined_periodic_clock_max_semantics(self, tmp_path):
        """A DDL-replayed periodic view takes the later of replayed and
        persisted clocks — a stale meta row never rolls it back."""
        from repro.storage.durability import _PERIODIC_CLOCK_PREFIX

        directory = str(tmp_path / "db")
        db = ChronicleDatabase.open(directory)
        db.create_chronicle(
            "calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")]
        )
        db.define_view(
            "DEFINE PERIODIC VIEW usage OVER EVERY 30 BY day AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        db.append("calls", [(1, 10, 40)])
        assert db.periodic_view("usage")._clock == 40.0
        # Plant a stale meta row behind the replayable stream.
        db.durability.wal.set_meta(_PERIODIC_CLOCK_PREFIX + "usage", "7.0")
        db.durability._logged_clocks.pop("usage", None)
        db.durability.abort()

        reopened = ChronicleDatabase.open(directory)
        try:
            # DDL + tail replay already advanced the clock to 40; the
            # stale persisted 7.0 must not win.
            assert reopened.periodic_view("usage")._clock == 40.0
        finally:
            reopened.close()

    def test_clock_survives_clean_close_too(self, tmp_path):
        directory = str(tmp_path / "db")
        db = ChronicleDatabase.open(directory)
        db.create_chronicle(
            "calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")]
        )
        self._define(db)
        db.append("calls", [(1, 10, 12)])
        db.close()  # final snapshot carries the orphaned periodic state

        with pytest.warns(NonDurableWarning, match="dropping it"):
            reopened = ChronicleDatabase.open(directory)
        try:
            redefined = self._define(reopened)
            assert redefined._clock == 12.0
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


class TestDurabilityConfig:
    def test_defaults(self):
        config = DurabilityConfig()
        assert config.mode == "off"
        assert config.dir is None
        assert config.fsync == "batch"
        assert config.snapshot_interval_batches == 512

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "psync"},
            {"mode": "wal", "dir": "/tmp/x"},  # deleted: one durable mode
            {"mode": "wal+snapshot"},  # mode without dir
            {"mode": "wal+snapshot", "dir": "/tmp/x", "fsync": "sometimes"},
            {"dir": 7},
            {"mode": "wal+snapshot", "dir": "/tmp/x", "snapshot_interval_batches": 0},
            {"mode": "wal+snapshot", "dir": "/tmp/x", "snapshot_interval_batches": True},
            {"mode": "wal+snapshot", "dir": "/tmp/x", "snapshot_interval_batches": 2.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DurabilityConfig(**kwargs)

    def test_replace_validates(self):
        config = DurabilityConfig(mode="wal+snapshot", dir="/tmp/x")
        assert config.replace(fsync="always").fsync == "always"
        with pytest.raises(ConfigError):
            config.replace(fsyncing="always")
        with pytest.raises(ConfigError):
            config.replace(mode="nope")

    def test_database_config_normalizes_none(self):
        assert DatabaseConfig().durability == DurabilityConfig()
        with pytest.raises(ConfigError):
            DatabaseConfig(durability={"mode": "wal+snapshot"})


# ---------------------------------------------------------------------------
# WAL substrate details + checkpoint deprecation shims
# ---------------------------------------------------------------------------


class TestWalSubstrate:
    def test_fresh_and_close(self, tmp_path):
        directory = str(tmp_path / "db")
        wal = ChronicleWal(directory, fsync="off")
        assert wal.is_fresh()
        wal.log_ddl(("group", "default", 0), -1)
        assert not wal.is_fresh()
        wal.close()
        wal.close()  # idempotent
        assert wal.closed

    def test_snapshot_truncates_batches_keeps_ddl(self, tmp_path):
        wal = ChronicleWal(str(tmp_path / "db"), fsync="off")
        try:
            wal.log_ddl(("group", "default", 0), -1)
            for watermark in range(3):
                wal.log_batch("default", {"t": [[watermark, 1]]}, watermark)
            _, truncated = wal.write_snapshot({"format": 1}, 2)
            assert truncated == 3  # batches gone, ddl kept
            kinds = [entry.kind for entry in wal.entries()]
            assert kinds == ["ddl"]
            (snapshot,) = wal.snapshot_chain()
            assert snapshot.watermark == 2
            # A delta appends to the chain (and truncates its own tail);
            # the next base replaces the whole chain.
            wal.log_batch("default", {"t": [[3, 1]]}, 3)
            assert wal.write_snapshot({"format": "delta-1"}, 3, base=False)[1] == 1
            assert [s.watermark for s in wal.snapshot_chain()] == [2, 3]
            wal.write_snapshot({"format": 1}, 3)
            assert [s.decode() for s in wal.snapshot_chain()] == [{"format": 1}]
        finally:
            wal.close()
