"""A stateful differential test of the public facade (hypothesis).

One :class:`RuleBasedStateMachine` drives a database through its public
calls — ``append``, ``ingest``, view definition (text DDL, programmatic
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
executor.  Thread and process executors, durability and crash rules
belong to the wider harness on the ROADMAP.
"""

import os
import tempfile
import warnings
from typing import Callable, NamedTuple, Optional

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import ChronicleDatabase, DatabaseConfig
from repro.aggregates import AVG, COUNT, MAX, MIN, SUM, spec
from repro.algebra.ast import scan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.parallel import UnpartitionableViewWarning
from repro.query.compiler import compile_view
from repro.relational.predicate import And, attr_cmp
from repro.sca.summarize import GroupBySummary, ProjectSummary, Summary
from repro.sca.view import evaluate_summary
from repro.views.calendar import monthly, sliding

ACCOUNTS = 4
STATES = ("NJ", "NY", "PA")
NAMES = ("v0", "v1", "v2", "v3")

# Tier-1 budget: both machines together ≈ 10 s.  derandomize keeps the
# tier-1 run reproducible; raise the two numbers to explore further.
MACHINE_SETTINGS = settings(
    max_examples=120,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=list(HealthCheck),
)

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
        return compile_view(f"DEFINE VIEW v AS {select}", db.catalog(), db.aggregates)[1]

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

PERIODIC_SUMMARY = Definition(
    lambda db: GroupBySummary(
        scan(db.chronicle("calls")), ["acct"], [spec(SUM, "mins"), spec(MAX, "day")]
    )
)
CALENDARS = {
    "monthly": lambda: monthly(month_length=10.0),
    "sliding": lambda: sliding(window=10.0, step=5.0),
}


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

    def __init__(self):
        super().__init__()
        self.scratch = tempfile.TemporaryDirectory()
        self.oracle = self.build_catalog(DatabaseConfig())
        self.db = self.build_catalog(self.CONFIG)
        self.views = {}
        #: First sequence number the system's chronicle store still holds
        #: (a rebuilt catalog starts with an empty store).
        self.store_floor = 0

    def teardown(self):
        self.db.close()
        self.oracle.close()
        self.scratch.cleanup()

    @staticmethod
    def build_catalog(config):
        db = ChronicleDatabase(config=config)
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
            if model.calendar is not None:
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
        name=st.sampled_from(NAMES),
        definition=st.sampled_from(PLAIN),
        materialize=st.booleans(),
    )
    def define_view(self, name, definition, materialize):
        if name in self.views:
            return
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
            PERIODIC_SUMMARY, self.db.group().watermark + 1, calendar, expire_after
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
        rebuilt = self.build_catalog(self.CONFIG)
        for name, model in self.views.items():
            self.define(rebuilt, name, model, materialize=False)
        rebuilt.restore(path)
        self.db = rebuilt
        self.store_floor = rebuilt.group().watermark + 1

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def sequence_numbers_in_lockstep(self):
        assert self.db.group().watermark == self.oracle.group().watermark

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


TestSerialEngine = FacadeMachine.TestCase
TestSerialEngine.settings = MACHINE_SETTINGS
TestShardedEngineSerialExecutor = ShardedSerialExecutorMachine.TestCase
TestShardedEngineSerialExecutor.settings = MACHINE_SETTINGS
