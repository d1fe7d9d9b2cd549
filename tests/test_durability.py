"""Tests for the durability subsystem (WAL + snapshots + open/flush/close).

Covers the crash-recovery property (recovered views must equal a serial
recompute of exactly the logged batches, for every workload generator on
both engines), kill -9 of a live ingesting process (inline and process
executors; recovery counts validated against the SQLite log itself),
watermark-bounded replay (tail length <= snapshot interval), mid-stream
DDL (views defined between snapshots rebuild with their history-derived
state), relation proactivity updates, wal-only full replay, cross-engine
recovery, corrupt-log failure (RecoveryError + incident bundle), the
unified lifecycle API (open/flush/close, the refusal to construct over
existing durable state), zero-cost off mode, DurabilityConfig
validation, NonDurableWarning cases, and the checkpoint deprecation
shims.
"""

import os
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
from repro.storage.durability import NonDurableWarning, RecoveryError
from repro.storage.wal import ChronicleWal, WalError, wal_path


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


def _config(directory, engine="serial", mode="wal+snapshot", interval=3, fsync="off"):
    return DatabaseConfig(
        durability=DurabilityConfig(
            mode=mode,
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
    the batch has been admitted, WAL-logged, and (serially) maintained —
    but before the facade's commit hook (and, on the sharded engine,
    before shard dispatch).  Either way the batch is on the log and
    recovery must replay it.
    """

    def _boom(group, event):
        raise _InjectedCrash("injected maintenance crash")

    db.groups["default"].subscribe(_boom)


# ---------------------------------------------------------------------------
# Crash-recovery property: recovered state == serial recompute of the log
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    @settings(max_examples=12, deadline=None)
    @given(
        workload_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
        engine=st.sampled_from(sorted(ENGINES)),
        committed=st.integers(min_value=1, max_value=10),
        interval=st.integers(min_value=1, max_value=4),
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
                expected = _reference(
                    workload_cls, key, value, [[r] for r in records]
                )
            else:
                db.close()
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
                # crashed batch plus at most interval-1 committed since
                # the last snapshot.  A clean close snapshots everything.
                assert report.replayed_batches <= (interval if crash else 0)
                if crash:
                    assert report.replayed_batches >= 1
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
        expected = _reference(workload_cls, key, value, [[r] for r in records])

        # Sharded crash -> serial recovery.
        serial = _config(directory, engine="serial", interval=3)
        recovered = ChronicleDatabase.open(directory, config=serial)
        assert _state(recovered) == expected
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
                workload_cls, key, value, [[r] for r in records + more]
            )
            assert _state(again) == expected_more
        finally:
            again.close()

    def test_wal_only_mode_replays_full_log(self, tmp_path):
        """Without snapshots, recovery rebuilds everything from batch 0."""
        directory = str(tmp_path / "db")
        workload_cls, key, value = WORKLOADS[1]
        records = list(workload_cls(seed=7).records(9))
        config = _config(directory, mode="wal")
        db = ChronicleDatabase.open(directory, config=config)
        workload = _catalog(db, workload_cls, key, value)
        for record in records:
            db.append(workload.NAME, record)
        db.durability.abort()

        recovered = ChronicleDatabase.open(directory, config=config)
        try:
            report = recovered.durability.last_recovery
            assert report.snapshot_watermark is None
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
    one snapshot per call, taken once every shard absorbed the window."""

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
                snapshots.append((stamped, _commit_state(db), db.shard_health()))
                return stamped

            db.durability.snapshot = spy
            for op in _COMMIT_OPS:
                before = len(snapshots)
                _commit_apply(db, op)
                assert len(snapshots) - before <= 1, op[0]
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
            assert 3 <= len(snapshots) <= 6
            for stamped, state, fleet in snapshots:
                # What a snapshot holds is the state *at* its stamp: no
                # shard was still behind the watermark it was stamped with.
                assert state == at_watermark[stamped]
                assert fleet is None or fleet.max_lag_batches == 0
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
            durability=DurabilityConfig(mode="wal", dir=directory, fsync="always"),
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

        config = DatabaseConfig(
            durability=DurabilityConfig(mode="wal", dir=directory, fsync="off")
        )
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
# Recovery failure: corrupt log -> RecoveryError + incident bundle
# ---------------------------------------------------------------------------


class TestRecoveryFailure:
    def test_corrupt_log_entry(self, tmp_path):
        directory = str(tmp_path / "db")
        config = _config(directory, mode="wal")
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
            durability=DurabilityConfig(mode="wal", dir=elsewhere)
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
        # Groups are detached: no sink remains after close.
        assert all(g.wal_sink is None for g in db.groups.values())

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

    def test_off_mode_is_zero_cost(self):
        db = ChronicleDatabase()
        try:
            assert db.durability is None
            db.create_chronicle("t", [("k", "INT")])
            assert all(g.wal_sink is None for g in db.groups.values())
            db.append("t", {"k": 1})
            db.flush()  # no-op, no error
        finally:
            db.close()

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
            {"mode": "wal"},  # mode without dir
            {"mode": "wal+snapshot", "dir": "/tmp/x", "fsync": "sometimes"},
            {"dir": 7},
            {"mode": "wal", "dir": "/tmp/x", "snapshot_interval_batches": 0},
            {"mode": "wal", "dir": "/tmp/x", "snapshot_interval_batches": True},
            {"mode": "wal", "dir": "/tmp/x", "snapshot_interval_batches": 2.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DurabilityConfig(**kwargs)

    def test_replace_validates(self):
        config = DurabilityConfig(mode="wal", dir="/tmp/x")
        assert config.replace(fsync="always").fsync == "always"
        with pytest.raises(ConfigError):
            config.replace(fsyncing="always")
        with pytest.raises(ConfigError):
            config.replace(mode="nope")

    def test_database_config_normalizes_none(self):
        assert DatabaseConfig().durability == DurabilityConfig()
        with pytest.raises(ConfigError):
            DatabaseConfig(durability={"mode": "wal"})


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
            snapshot = wal.latest_snapshot()
            assert snapshot.watermark == 2
        finally:
            wal.close()
