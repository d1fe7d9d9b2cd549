"""A stateful differential test of the public facade (hypothesis).

One :class:`RuleBasedStateMachine` drives a database through its public
calls — ``append``, ``ingest``, a write that admission refuses (after
which every view, the store, the watermarks, the next sequence number and
the log must be as they were), view definition (text DDL, programmatic
``Summary``, periodic over tiling and sliding calendars with and without
expiration), ``drop_view``, ``update_relation``, and ``checkpoint`` →
``restore`` into a rebuilt catalog — and after every rule compares every
live view (and every active interval view of every periodic set) with
:func:`~repro.sca.view.evaluate_summary` over the admitted history.

The admitted history lives in an *oracle world*: a second database that
only stores (unbounded retention, no views), fed the same records and
relation updates at the same sequence numbers.  It is never rebuilt, so
it still holds the whole history after the system under test has been
restored into a fresh catalog whose chronicle stores start empty.

Scope: the serial engine and the sharded engine with the ``serial``
executor, each also durable (``wal+snapshot`` at a snapshot interval of
3, so base + delta snapshot chains form) with four more rules — flush
(after which a copy of the directory must recover to the live state),
crash (``durability.abort()``) → ``ChronicleDatabase.open()``,
``close()`` → ``open()``, and a write whose maintenance raises (an
``UNLUCKY`` view meets its sentinel) followed by a crash and an open,
which must bring back the acknowledged history only — over the
definitions the log can rebuild: text DDL, portable ``Summary`` specs
and text-DDL periodic views; every durable example ends in a crash and a
recovery.  :func:`test_a_raising_call_logs_no_batch` checks the same
commit point directly, call by call, on the process executor too.  The
process executor's machines and worker kills belong to the wider
harness on the ROADMAP.
"""

import os
import shutil
import tempfile
import warnings
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import ChronicleDatabase, DatabaseConfig, DurabilityConfig
from repro.aggregates import AVG, COUNT, MAX, MIN, SUM, spec
from repro.aggregates.registry import default_registry
from repro.aggregates.standard import Sum
from repro.algebra.ast import scan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.errors import SchemaError, TypeMismatchError, UnknownAttributeError
from repro.parallel import UnpartitionableViewWarning
from repro.query.compiler import compile_view
from repro.relational.predicate import And, attr_cmp
from repro.sca.summarize import GroupBySummary, ProjectSummary, Summary
from repro.sca.view import evaluate_summary
from repro.views.calendar import monthly, sliding

ACCOUNTS = 4
STATES = ("NJ", "NY", "PA")
NAMES = ("v0", "v1", "v2", "v3")

# Tier-1 budget: the four machines together ≈ 10 s.  derandomize keeps the
# tier-1 run reproducible; raise the two numbers to explore further.
MACHINE_SETTINGS = settings(
    max_examples=120,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=list(HealthCheck),
)
#: Each durable step writes SQLite, and each example ends in a crash and a
#: recovery: fewer examples.
DURABLE_SETTINGS = settings(MACHINE_SETTINGS, max_examples=100)
DURABLE_SHARDED_SETTINGS = settings(MACHINE_SETTINGS, max_examples=60)

records = st.lists(
    st.fixed_dictionaries(
        {
            "acct": st.integers(0, ACCOUNTS - 1),
            "mins": st.integers(0, 9),
            "day": st.integers(0, 59),
        }
    ),
    min_size=1,
    max_size=4,
)
#: Records admission refuses, each with the error it raises.
MALFORMED = (
    ({"acct": "x", "mins": 1, "day": 2}, TypeMismatchError),
    ({"acct": True, "mins": 1, "day": 2}, TypeMismatchError),
    ({"acct": 1, "mins": None, "day": 2}, TypeMismatchError),
    ({"acct": 1, "mins": 1}, SchemaError),
    ({"acct": 1, "mins": 1, "day": 2, "zzz": 0}, UnknownAttributeError),
    ({"sn": 10**9, "acct": 1, "mins": 1, "day": 2}, SchemaError),
    ((1, 2), SchemaError),
)


#: The value on which ``UNLUCKY`` raises; ``records`` never draws it.
SENTINEL = 13


class UnluckyError(RuntimeError):
    """What maintenance raises when ``UNLUCKY`` meets the sentinel."""


class Unlucky(Sum):
    """``SUM``, except that it raises on :data:`SENTINEL`."""

    name = "UNLUCKY"

    def step(self, state, value):
        if value == SENTINEL:
            raise UnluckyError("unlucky")
        return state + value


#: The standard aggregates plus ``UNLUCKY``: every durable database and
#: every text definition compiles against it.
AGGREGATES = default_registry()
AGGREGATES.register(Unlucky())


# -- view definitions -----------------------------------------------------------
#
# A definition builds its summary over whichever database it is given, so
# the same definition serves the system under test, a rebuilt catalog and
# the oracle world.  Text definitions are handed to define_view() as text.


class Definition(NamedTuple):
    build: Callable[[ChronicleDatabase], Summary]
    text: Optional[str] = None  # the SELECT, when defined through the DDL


def text_definition(select):
    def build(db):
        return compile_view(f"DEFINE VIEW v AS {select}", db.catalog(), AGGREGATES)[1]

    return Definition(build, select)


PLAIN = (
    text_definition(
        "SELECT acct, SUM(mins) AS total, COUNT(*) AS n FROM calls "
        "WHERE mins > 2 GROUP BY acct"
    ),
    text_definition("SELECT COUNT(*) AS n, MAX(mins) AS top FROM calls WHERE acct = 1"),
    text_definition(
        "SELECT state, SUM(mins) AS total FROM calls "
        "JOIN customers ON calls.acct = customers.acct GROUP BY state"
    ),
    Definition(
        lambda db: GroupBySummary(
            scan(db.chronicle("calls"))
            .select(attr_cmp("mins", ">", 2))
            .project(["sn", "acct", "mins"])
            .select(attr_cmp("mins", "<", 8)),
            ["acct"],
            [spec(MIN, "mins"), spec(AVG, "mins")],
        )
    ),
    Definition(
        lambda db: ProjectSummary(
            scan(db.chronicle("calls")).keyjoin(
                db.relation("customers"), [("acct", "acct")]
            ),
            ["acct", "state"],
        )
    ),
    Definition(
        lambda db: GroupBySummary(
            scan(db.chronicle("calls"))
            .select(attr_cmp("mins", ">", 4))
            .union(scan(db.chronicle("calls")).select(attr_cmp("acct", "=", 0)))
            .minus(scan(db.chronicle("calls")).select(attr_cmp("day", ">", 40))),
            ["acct"],
            [spec(SUM, "mins"), spec(COUNT)],
        )
    ),
)

#: What the log can rebuild: text DDL and programmatic summaries with a
#: portable plan spec (PLAIN[4] keyjoins a live relation: it has none).
DURABLE_PLAIN = tuple(d for i, d in enumerate(PLAIN) if i != 4)
#: A view whose maintenance raises on the sentinel (durable machines).
UNLUCKY = text_definition("SELECT acct, UNLUCKY(mins) AS total FROM calls GROUP BY acct")

PERIODIC_SUMMARY = Definition(
    lambda db: GroupBySummary(
        scan(db.chronicle("calls")), ["acct"], [spec(SUM, "mins"), spec(MAX, "day")]
    )
)
PERIODIC_TEXT = text_definition(
    "SELECT acct, SUM(mins) AS total, MAX(day) AS top FROM calls GROUP BY acct"
)
CALENDARS = {
    "monthly": lambda: monthly(month_length=10.0),
    "sliding": lambda: sliding(window=10.0, step=5.0),
}
#: The same calendars in the DDL's OVER clause.
CALENDAR_DDL = {"monthly": "EVERY 10", "sliding": "WINDOW 10 SLIDE 5"}


def day_of(row):
    return float(row["day"])


def restricted(summary, predicate):
    """*summary* over only the χ rows passing *predicate*."""
    expression = summary.expression.select(predicate)
    if isinstance(summary, GroupBySummary):
        return GroupBySummary(
            expression, summary.grouping, summary.aggregates, having=summary.having
        )
    return ProjectSummary(expression, summary.names)


def sorted_rows(rows):
    return sorted(tuple(row.values) for row in rows)


class ViewModel:
    """What the test remembers about one defined view."""

    def __init__(self, definition, since, calendar=None, expire_after=None):
        self.definition = definition
        #: Lowest sequence number whose rows the view covers.
        self.since = since
        self.calendar = calendar  # a CALENDARS key; None for a plain view
        self.expire_after = expire_after


class FacadeMachine(RuleBasedStateMachine):
    CONFIG = DatabaseConfig()
    DEFINITIONS = PLAIN
    PERIODIC = PERIODIC_SUMMARY

    def __init__(self):
        super().__init__()
        self.scratch = tempfile.TemporaryDirectory()
        self.oracle = self.build_catalog(ChronicleDatabase())
        self.db = self.build_catalog(self.open_system())
        self.views = {}
        #: First sequence number the system's chronicle store still holds
        #: (a rebuilt catalog starts with an empty store).
        self.store_floor = 0

    def teardown(self):
        self.db.close()
        self.oracle.close()
        self.scratch.cleanup()

    def open_system(self):
        """An empty database for the system under test."""
        return ChronicleDatabase(config=self.CONFIG)

    @staticmethod
    def build_catalog(db):
        # Unbounded retention: the oracle world needs the whole history,
        # and the system under test materializes new views from its store.
        db.create_chronicle("calls", [("acct", "INT"), ("mins", "INT"), ("day", "INT")])
        customers = db.create_relation(
            "customers", [("acct", "INT"), ("state", "STR")], key=["acct"]
        )
        for acct in range(ACCOUNTS):
            customers.insert({"acct": acct, "state": STATES[acct % len(STATES)]})
        return db

    def define(self, db, name, model, materialize):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnpartitionableViewWarning)
            if model.calendar is not None and model.definition.text is not None:
                expire = (
                    f" EXPIRE AFTER {model.expire_after:g}"
                    if model.expire_after is not None
                    else ""
                )
                db.define_view(
                    f"DEFINE PERIODIC VIEW {name} OVER {CALENDAR_DDL[model.calendar]}"
                    f"{expire} BY day AS {model.definition.text}"
                )
            elif model.calendar is not None:
                db.define_periodic_view(
                    name,
                    model.definition.build(db),
                    CALENDARS[model.calendar](),
                    chronon_of=day_of,
                    expire_after=model.expire_after,
                )
            elif model.definition.text is not None:
                db.define_view(
                    f"DEFINE VIEW {name} AS {model.definition.text}",
                    materialize=materialize,
                )
            else:
                db.define_view(model.definition.build(db), name=name, materialize=materialize)

    # -- rules ---------------------------------------------------------------------

    @rule(batch=records)
    def append(self, batch):
        with GLOBAL_COUNTERS.measure() as cost:
            self.db.append("calls", batch)
        assert cost["chronicle_read"] == 0
        self.oracle.append("calls", batch)

    @rule(batches=st.lists(records, min_size=1, max_size=3))
    def ingest(self, batches):
        with GLOBAL_COUNTERS.measure() as cost:
            admitted = self.db.ingest("calls", batches)
        assert cost["chronicle_read"] == 0
        assert admitted == self.oracle.ingest("calls", batches)

    @rule(
        batch=records,
        position=st.integers(0, 4),
        malformed=st.sampled_from(MALFORMED),
        call=st.sampled_from(("append", "append_simultaneous", "ingest")),
    )
    def refused_write(self, batch, position, malformed, call):
        """A batch holding one malformed record is refused whole, and the
        refused call changes nothing.  The oracle is not fed."""
        record, error = malformed
        batch = batch[:position] + [record] + batch[position:]
        before = self.refusable_state()
        with pytest.raises(error):
            if call == "append":
                self.db.append("calls", batch)
            elif call == "append_simultaneous":
                self.db.append_simultaneous({"calls": batch})
            else:
                self.db.ingest("calls", [batch])
        assert self.refusable_state() == before

    @rule(name=st.sampled_from(NAMES), data=st.data(), materialize=st.booleans())
    def define_view(self, name, data, materialize):
        if name in self.views:
            return
        definition = data.draw(st.sampled_from(self.DEFINITIONS))
        since = self.store_floor if materialize else self.db.group().watermark + 1
        model = ViewModel(definition, since)
        self.define(self.db, name, model, materialize)
        self.views[name] = model

    @rule(
        name=st.sampled_from(NAMES),
        calendar=st.sampled_from(sorted(CALENDARS)),
        expire_after=st.sampled_from([None, 5.0]),
    )
    def define_periodic_view(self, name, calendar, expire_after):
        if name in self.views:
            return
        model = ViewModel(
            self.PERIODIC, self.db.group().watermark + 1, calendar, expire_after
        )
        self.define(self.db, name, model, materialize=False)
        self.views[name] = model

    @precondition(lambda self: self.views)
    @rule(data=st.data())
    def drop_view(self, data):
        name = data.draw(st.sampled_from(sorted(self.views)))
        self.db.drop_view(name)
        del self.views[name]

    @rule(acct=st.integers(0, ACCOUNTS - 1), state=st.sampled_from(STATES))
    def update_relation(self, acct, state):
        with GLOBAL_COUNTERS.measure() as cost:
            updated = self.db.update_relation("customers", (acct,), state=state)
        assert cost["chronicle_read"] == 0
        assert updated == self.oracle.update_relation("customers", (acct,), state=state)

    @rule()
    def checkpoint_and_restore(self):
        path = os.path.join(self.scratch.name, "state.ckpt")
        self.db.checkpoint(path)
        self.db.close()
        rebuilt = self.build_catalog(self.open_system())
        for name, model in self.views.items():
            self.define(rebuilt, name, model, materialize=False)
        rebuilt.restore(path)
        self.db = rebuilt
        self.store_floor = rebuilt.group().watermark + 1

    # -- state -----------------------------------------------------------------------

    def state(self, db):
        """Every model view's rows (per active interval for a periodic
        set), the relation and the watermark."""
        views = {}
        for name, model in self.views.items():
            if model.calendar is None:
                views[name] = sorted_rows(db.view(name))
            else:
                views[name] = {
                    index: sorted_rows(view)
                    for index, view in db.periodic_view(name).active_views()
                }
        return views, sorted_rows(db.relation("customers")), db.group().watermark

    def refusable_state(self):
        """What a refused call must leave as it was: :meth:`state`, the
        chronicle's store and appended count, every shard unit's
        watermark, the next sequence number and the log."""
        calls = self.db.chronicle("calls")
        durability = self.db.durability
        return (
            self.state(self.db),
            list(calls.rows()),
            calls.appended_count,
            self.db.watermarks(),
            self.db.group().next_sequence_number(),
            durability.wal.log_rows() if durability is not None else None,
        )

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def sequence_numbers_in_lockstep(self):
        assert self.db.group().watermark == self.oracle.group().watermark

    @invariant()
    def relations_equal_the_oracle(self):
        assert sorted_rows(self.db.relation("customers")) == sorted_rows(
            self.oracle.relation("customers")
        )

    @invariant()
    def views_equal_the_batch_oracle(self):
        for name, model in self.views.items():
            summary = model.definition.build(self.oracle)
            sn = summary.expression.schema.sequence_attribute
            covered = attr_cmp(sn, ">=", model.since)
            if model.calendar is None:
                expected = evaluate_summary(restricted(summary, covered))
                assert sorted_rows(self.db.view(name)) == sorted_rows(expected), name
                continue
            view_set = self.db.periodic_view(name)
            for index, view in view_set.active_views():
                interval = view_set.calendar.interval_at(index)
                within = And(
                    covered,
                    attr_cmp("day", ">=", interval.start),
                    attr_cmp("day", "<", interval.end),
                )
                expected = evaluate_summary(restricted(summary, within))
                assert sorted_rows(view) == sorted_rows(expected), (name, index)


class ShardedSerialExecutorMachine(FacadeMachine):
    CONFIG = DatabaseConfig(engine="sharded", shards=2, executor="serial")


class DurableMachine(FacadeMachine):
    """The machine over ``wal+snapshot``: every crash and reopen must
    bring back exactly the acknowledged history."""

    DEFINITIONS = DURABLE_PLAIN + (UNLUCKY,)
    PERIODIC = PERIODIC_TEXT

    def open_system(self, name="db"):
        directory = os.path.join(self.scratch.name, name)
        durability = DurabilityConfig(
            mode="wal+snapshot", dir=directory, fsync="off", snapshot_interval_batches=3
        )
        config = self.CONFIG.replace(durability=durability, aggregates=AGGREGATES)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnpartitionableViewWarning)
            return ChronicleDatabase.open(directory, config=config)

    @staticmethod
    def build_catalog(db):
        FacadeMachine.build_catalog(db)
        if db.durability is not None:
            # Rows inserted directly are durable through snapshots only.
            db.durability.snapshot()
        return db

    def reopen(self):
        self.db = self.open_system()
        report = self.db.durability.last_recovery
        # The rebuilt store holds the replayed tail: the rows past the
        # chain's last snapshot.
        self.store_floor = report.snapshot_watermark + 1

    def teardown(self):
        # Every example ends in a crash: whatever the steps left on disk
        # must recover to the acknowledged history.
        self.crash_and_open()
        self.sequence_numbers_in_lockstep()
        self.relations_equal_the_oracle()
        self.views_equal_the_batch_oracle()
        super().teardown()

    @rule()
    def flush(self):
        # A durability barrier: a crash right after it loses nothing.  A
        # copy of the directory is recovered beside the live database.
        self.db.flush()
        copy = os.path.join(self.scratch.name, "copy")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(os.path.join(self.scratch.name, "db"), copy)
        recovered = self.open_system("copy")
        try:
            assert self.state(recovered) == self.state(self.db)
        finally:
            recovered.close()

    @rule()
    def crash_and_open(self):
        self.db.durability.abort()
        self.db.close()
        self.reopen()

    @rule()
    def close_and_open(self):
        self.db.close()
        self.reopen()

    @precondition(
        lambda self: any(model.definition is UNLUCKY for model in self.views.values())
    )
    @rule(
        batch=records,
        position=st.integers(0, 4),
        call=st.sampled_from(("append", "append_simultaneous", "ingest")),
    )
    def raising_write_then_crash(self, batch, position, call):
        """A batch holding the sentinel: maintenance raises, so the call
        is not acknowledged and the oracle is not fed.  The views in
        memory may be torn; the directory must reopen, after a crash, to
        the acknowledged history."""
        sentinel = {"acct": position % ACCOUNTS, "mins": SENTINEL, "day": 0}
        raising = batch[:position] + [sentinel] + batch[position:]
        with pytest.raises(UnluckyError):
            if call == "append":
                self.db.append("calls", raising)
            elif call == "append_simultaneous":
                self.db.append_simultaneous({"calls": raising})
            else:  # a window whose first batch is maintained
                self.db.ingest("calls", [batch, raising])
        self.crash_and_open()

    @rule()
    def checkpoint_and_restore(self):
        # In place: the directory belongs to this database.  The restored
        # state must reach the log as a base, not as a delta of records
        # taken before it.
        path = os.path.join(self.scratch.name, "state.ckpt")
        self.db.checkpoint(path)
        self.db.restore(path)


class DurableShardedMachine(DurableMachine):
    CONFIG = ShardedSerialExecutorMachine.CONFIG


TestSerialEngine = FacadeMachine.TestCase
TestSerialEngine.settings = MACHINE_SETTINGS
TestShardedEngineSerialExecutor = ShardedSerialExecutorMachine.TestCase
TestShardedEngineSerialExecutor.settings = MACHINE_SETTINGS
TestDurableSerialEngine = DurableMachine.TestCase
TestDurableSerialEngine.settings = DURABLE_SETTINGS
TestDurableShardedEngine = DurableShardedMachine.TestCase
TestDurableShardedEngine.settings = DURABLE_SHARDED_SETTINGS


@pytest.mark.parametrize("call", ("append", "append_simultaneous", "ingest"))
@pytest.mark.parametrize(
    "engine",
    [
        {},
        {"engine": "sharded", "shards": 2},
        {"engine": "sharded", "shards": 2, "executor": "process"},
    ],
    ids=["serial", "sharded", "sharded-process"],
)
def test_a_raising_call_logs_no_batch(tmp_path, engine, call):
    """A call whose maintenance raises — on the registry, or in a shard's
    apply inline or in a worker — was not acknowledged: it leaves no
    ``batch`` row, and a crash reopens to the batches before it."""
    directory = str(tmp_path / "db")
    durability = DurabilityConfig(
        mode="wal+snapshot", dir=directory, fsync="off", snapshot_interval_batches=1000
    )
    config = DatabaseConfig(aggregates=AGGREGATES, durability=durability, **engine)
    db = ChronicleDatabase.open(directory, config=config)
    try:
        db.create_chronicle("calls", [("k", "STR"), ("m", "INT")])
        db.define_view("DEFINE VIEW a AS SELECT k, SUM(m) AS s FROM calls GROUP BY k")
        db.define_view("DEFINE VIEW b AS SELECT k, UNLUCKY(m) AS s FROM calls GROUP BY k")
        db.append("calls", {"k": "k1", "m": 5})
        batch = [{"k": "k1", "m": 1}, {"k": "k2", "m": SENTINEL}]
        with pytest.raises(UnluckyError):
            if call == "append":
                db.append("calls", batch)
            elif call == "append_simultaneous":
                db.append_simultaneous({"calls": batch})
            else:
                db.ingest("calls", [[{"k": "k1", "m": 2}], batch])
        kinds = [entry.kind for entry in db.durability.wal.entries()]
        assert kinds.count("batch") == 1
        db.durability.abort()
    finally:
        db.close()
    recovered = ChronicleDatabase.open(directory, config=config)
    try:
        assert recovered.durability.last_recovery.replayed_batches == 1
        for name in ("a", "b"):
            assert sorted_rows(recovered.view(name)) == [("k1", 5)], name
    finally:
        recovered.close()
