"""Tests for the summarization step (Definition 4.3) and persistent views
(Theorem 4.4 behaviour)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import AVG, COUNT, FIRST, LAST, MAX, MIN, STDEV, SUM, VAR, spec
from repro.aggregates.base import NonIncrementalAggregate
from repro.algebra.ast import ChronicleProduct, scan
from repro.algebra.classify import IMClass, Language
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.core.delta import Delta
from repro.core.group import ChronicleGroup
from repro.errors import (
    AlgebraError,
    NotIncrementalError,
    SchemaError,
    ViewError,
)
from repro.relational.predicate import attr_cmp
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import Row
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary, ProjectSummary
from repro.sca.view import PersistentView, evaluate_summary
from repro.storage.btree import BPlusTree
from repro.storage.hash_index import HashMap


def build(retention=None):
    group = ChronicleGroup("g")
    calls = group.create_chronicle(
        "calls", [("acct", "INT"), ("mins", "INT")], retention=retention
    )
    return group, calls


class TestSummaryValidation:
    def test_project_summary_drops_sn(self):
        _, calls = build()
        summary = ProjectSummary(scan(calls), ["acct"])
        assert summary.output_schema.names == ("acct",)

    def test_project_summary_keeping_sn_rejected(self):
        _, calls = build()
        with pytest.raises(AlgebraError):
            ProjectSummary(scan(calls), ["sn", "acct"])

    def test_project_summary_empty_rejected(self):
        _, calls = build()
        with pytest.raises(SchemaError):
            ProjectSummary(scan(calls), [])

    def test_groupby_summary_schema(self):
        _, calls = build()
        summary = GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        assert summary.output_schema.names == ("acct", "sum_mins")
        assert summary.output_schema.key == ("acct",)

    def test_groupby_summary_with_sn_rejected(self):
        _, calls = build()
        with pytest.raises(AlgebraError):
            GroupBySummary(scan(calls), ["sn", "acct"], [spec(SUM, "mins")])

    def test_groupby_summary_requires_aggregates(self):
        _, calls = build()
        with pytest.raises(AlgebraError):
            GroupBySummary(scan(calls), ["acct"], [])

    def test_groupby_summary_rejects_non_incremental(self):
        # Definition 4.3: only incrementally computable aggregates.
        _, calls = build()
        median = NonIncrementalAggregate("MEDIAN", lambda vs: 0)
        with pytest.raises(NotIncrementalError):
            GroupBySummary(scan(calls), ["acct"], [spec(median, "mins")])

    def test_duplicate_outputs_rejected(self):
        _, calls = build()
        with pytest.raises(SchemaError):
            GroupBySummary(
                scan(calls),
                ["acct"],
                [spec(SUM, "mins", "x"), spec(COUNT, None, "x")],
            )


class TestGroupedView:
    def test_incremental_sum_and_count(self):
        group, calls = build()
        view = PersistentView(
            "v", GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins"), spec(COUNT)])
        )
        attach_view(view, group)
        group.append(calls, {"acct": 1, "mins": 5})
        group.append(calls, {"acct": 1, "mins": 7})
        group.append(calls, {"acct": 2, "mins": 3})
        assert view.value((1,), "sum_mins") == 12
        assert view.value((1,), "count") == 2
        assert view.value((2,), "sum_mins") == 3
        assert view.value((99,), "sum_mins") is None

    def test_min_max_avg(self):
        group, calls = build()
        view = PersistentView(
            "v",
            GroupBySummary(
                scan(calls),
                ["acct"],
                [spec(MIN, "mins"), spec(MAX, "mins"), spec(AVG, "mins")],
            ),
        )
        attach_view(view, group)
        for mins in (5, 1, 9):
            group.append(calls, {"acct": 1, "mins": mins})
        row = view.lookup((1,))
        assert (row["min_mins"], row["max_mins"], row["avg_mins"]) == (1, 9, 5.0)

    def test_global_aggregate(self):
        group, calls = build()
        view = PersistentView("v", GroupBySummary(scan(calls), [], [spec(SUM, "mins")]))
        attach_view(view, group)
        group.append(calls, {"acct": 1, "mins": 5})
        group.append(calls, {"acct": 2, "mins": 7})
        assert len(view) == 1
        assert view.lookup(())["sum_mins"] == 12

    def test_matches_oracle(self):
        group, calls = build()
        summary = GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        view = PersistentView("v", summary)
        attach_view(view, group)
        for i in range(50):
            group.append(calls, {"acct": i % 7, "mins": i})
        assert view.to_table() == evaluate_summary(summary)

    def test_maintenance_count(self):
        group, calls = build()
        view = PersistentView("v", GroupBySummary(scan(calls), ["acct"], [spec(COUNT)]))
        attach_view(view, group)
        for i in range(5):
            group.append(calls, {"acct": 1, "mins": i})
        assert view.maintenance_count == 5


class TestProjectionView:
    def test_set_semantics(self):
        group, calls = build()
        view = PersistentView("v", ProjectSummary(scan(calls), ["acct"]))
        attach_view(view, group)
        for acct in (1, 2, 1, 1, 3):
            group.append(calls, {"acct": acct, "mins": 0})
        assert sorted(r["acct"] for r in view) == [1, 2, 3]

    def test_matches_oracle(self):
        group, calls = build()
        summary = ProjectSummary(scan(calls).select(attr_cmp("mins", ">", 2)), ["acct", "mins"])
        view = PersistentView("v", summary)
        attach_view(view, group)
        for i in range(30):
            group.append(calls, {"acct": i % 5, "mins": i % 7})
        assert view.to_table() == evaluate_summary(summary)


class TestNoStorageMaintenance:
    def test_view_correct_with_zero_retention(self):
        """The headline property: maintenance never touches the chronicle,
        so a chronicle that stores nothing still yields correct views."""
        group, calls = build(retention=0)
        view = PersistentView(
            "v", GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins"), spec(COUNT)])
        )
        attach_view(view, group)
        expected = {}
        for i in range(500):
            acct = i % 13
            expected[acct] = expected.get(acct, 0) + i
            group.append(calls, {"acct": acct, "mins": i})
        assert len(calls) == 0  # truly nothing stored
        for acct, total in expected.items():
            assert view.value((acct,), "sum_mins") == total

    def test_keyjoin_view_with_zero_retention(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle(
            "calls", [("acct", "INT"), ("mins", "INT")], retention=0
        )
        customers = Relation(
            "customers", Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"])
        )
        customers.insert({"acct": 0, "state": "NJ"})
        customers.insert({"acct": 1, "state": "NY"})
        view = PersistentView(
            "v",
            GroupBySummary(
                scan(calls).keyjoin(customers, [("acct", "acct")]),
                ["state"],
                [spec(SUM, "mins")],
            ),
        )
        attach_view(view, group)
        for i in range(100):
            group.append(calls, {"acct": i % 2, "mins": 1})
        assert view.value(("NJ",), "sum_mins") == 50
        assert view.value(("NY",), "sum_mins") == 50


class TestViewRegistrationRules:
    def test_not_ca_expression_rejected(self):
        group = ChronicleGroup("g")
        a = group.create_chronicle("a", [("v", "INT")])
        b = group.create_chronicle("b", [("v", "INT")])
        summary = GroupBySummary(
            ChronicleProduct(scan(a), scan(b)), ["v"], [spec(COUNT)]
        )
        with pytest.raises(ViewError):
            PersistentView("v", summary)

    def test_require_language_enforced(self):
        group, calls = build()
        customers = Relation(
            "customers", Schema.build(("acct", "INT"), ("s", "STR"), key=["acct"])
        )
        summary = GroupBySummary(
            scan(calls).product(customers), ["s"], [spec(COUNT)]
        )
        with pytest.raises(ViewError):
            PersistentView("v", summary, require_language=Language.CA_JOIN)

    def test_require_language_accepts_smaller_fragment(self):
        group, calls = build()
        summary = GroupBySummary(scan(calls), ["acct"], [spec(COUNT)])
        view = PersistentView("v", summary, require_language=Language.CA_JOIN)
        assert view.language is Language.CA1
        assert view.im_class is IMClass.CONSTANT


class TestInitialMaterialization:
    def test_initialize_from_store(self):
        group, calls = build()
        for i in range(10):
            group.append(calls, {"acct": i % 2, "mins": i})
        summary = GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        view = PersistentView("v", summary)
        view.initialize_from_store()
        assert view.value((0,), "sum_mins") == 0 + 2 + 4 + 6 + 8
        # Subsequent appends continue incrementally from the initial state.
        attach_view(view, group)
        group.append(calls, {"acct": 0, "mins": 100})
        assert view.value((0,), "sum_mins") == 120


# ---------------------------------------------------------------------------
# The locate-once fold against the batch oracle, under every state store
# ---------------------------------------------------------------------------

EVERY_AGGREGATE = [
    spec(SUM, "mins"),
    spec(COUNT),
    spec(MIN, "mins"),
    spec(MAX, "mins"),
    spec(AVG, "mins"),
    spec(VAR, "mins"),
    spec(STDEV, "mins"),
    spec(FIRST, "mins"),
    spec(LAST, "mins"),
]

#: name -> summary over the ``events`` chronicle.
SUMMARY_SHAPES = {
    "every aggregate by acct": lambda events: GroupBySummary(
        scan(events), ["acct"], EVERY_AGGREGATE
    ),
    "identity finalizers by (acct, kind)": lambda events: GroupBySummary(
        scan(events), ["acct", "kind"], [spec(SUM, "mins"), spec(COUNT), spec(MAX, "mins")]
    ),
    "global aggregate": lambda events: GroupBySummary(
        scan(events), [], [spec(SUM, "mins"), spec(COUNT), spec(AVG, "mins")]
    ),
    "having": lambda events: GroupBySummary(
        scan(events).select(attr_cmp("mins", ">", 1)),
        ["acct"],
        [spec(SUM, "mins", "total"), spec(COUNT, None, "n")],
        having=attr_cmp("total", ">", 9),
    ),
    "projection": lambda events: ProjectSummary(
        scan(events).select(attr_cmp("mins", ">", 2)), ["acct", "kind"]
    ),
}

STATE_INDEXES = {
    # The view's own insertion-ordered map.
    "default": lambda: None,
    # order 4: a few dozen keys already make a tree three levels deep.
    "btree": lambda: BPlusTree(order=4, unique=True),
    "hash": HashMap,
}

# Few accounts and kinds: keys repeat inside one batch, and most batches
# mix keys the view already holds with keys it has never seen.
_record = st.tuples(st.integers(0, 11), st.integers(0, 2), st.integers(0, 9))
_batches = st.lists(st.lists(_record, max_size=8), min_size=1, max_size=8)


def _rows_and_state(view):
    """Visible rows and exported state, both order-free."""
    return (
        sorted(row.values for row in view.rows()),
        sorted(view.state_export()),
    )


def _assert_no_row(view):
    for key, state in view.state_export():
        assert isinstance(key, tuple)
        if isinstance(view.summary, GroupBySummary):
            assert type(state) is list and len(state) == len(view.summary.aggregates)
        else:
            assert type(state) is int


class TestLocateOnceFold:
    @pytest.mark.parametrize("index", sorted(STATE_INDEXES))
    @pytest.mark.parametrize("shape", sorted(SUMMARY_SHAPES))
    @settings(max_examples=25, deadline=None)
    @given(batches=_batches)
    def test_equals_oracle_after_every_fold(self, shape, index, batches):
        group = ChronicleGroup("g")
        events = group.create_chronicle(
            "events", [("acct", "INT"), ("kind", "INT"), ("mins", "INT"), ("uid", "INT")]
        )
        summary = SUMMARY_SHAPES[shape](events)
        new_index = STATE_INDEXES[index]
        view = PersistentView("v", summary, state_index=new_index())
        # A worker/parent pair: the worker folds the same deltas and hands
        # out what it touched, the parent only ever absorbs that.
        worker = PersistentView("w", summary, state_index=new_index())
        worker.record_touched()
        parent = PersistentView("p", summary, state_index=new_index())
        attach_view(view, group)
        attach_view(worker, group)
        uid = 0
        for batch in batches:
            exported_before = view.state_export()
            frozen = copy.deepcopy(exported_before)
            records = []
            for acct, kind, mins in batch:
                uid += 1
                records.append({"acct": acct, "kind": kind, "mins": mins, "uid": uid})
            if records:
                group.append(events, records)
            else:
                assert view.apply_delta(Delta.empty(summary.expression.schema)) == 0
                assert worker.apply_delta(Delta.empty(summary.expression.schema)) == 0
            # The fold equals the batch oracle over the stored history.
            assert view.to_table() == evaluate_summary(summary)
            assert len(view) == len(evaluate_summary(summary).rows)
            # Exported items are copies without the visible row ...
            assert exported_before == frozen
            _assert_no_row(view)
            # ... from which an import rebuilds rows and state exactly.
            clone = PersistentView("c", summary, state_index=new_index())
            clone.state_import(view.state_export())
            assert _rows_and_state(clone) == _rows_and_state(view)
            assert clone.to_table() == view.to_table()
            # Absorbing the worker's touched items equals folding the delta.
            parent.absorb_states(worker.take_touched())
            assert _rows_and_state(parent) == _rows_and_state(view)
            assert worker.take_touched() == []

    def test_counts_one_descent_per_distinct_key(self):
        group = ChronicleGroup("g")
        events = group.create_chronicle("events", [("acct", "INT"), ("mins", "INT")])
        aggregates = [spec(SUM, "mins"), spec(COUNT), spec(AVG, "mins")]
        summary = GroupBySummary(scan(events), ["acct"], aggregates)
        tree = BPlusTree(order=4, unique=True)
        view = PersistentView("v", summary, state_index=tree)
        schema = summary.expression.schema

        def delta(sn, accts):
            return Delta(
                schema,
                [Row.unchecked(schema, (sn, acct, i)) for i, acct in enumerate(accts)],
            )

        view.apply_delta(delta(1, range(200)))
        depth = tree.depth
        assert depth >= 3
        accts = [7, 150, 7, 42, 150, 7, 99, 42]  # n = 8 rows over k = 4 keys
        with GLOBAL_COUNTERS.scope() as cost:
            assert view.apply_delta(delta(2, accts)) == 8
        assert cost.counts["tuple_op"] == 8
        assert cost.counts["aggregate_step"] == 8 * len(aggregates)
        assert cost.counts["index_lookup"] == 4
        assert cost.counts["index_probe"] == 4 * depth
        assert cost.counts["view_read"] == cost.counts["chronicle_read"] == 0
        with GLOBAL_COUNTERS.disabled():
            with GLOBAL_COUNTERS.scope() as silent:
                view.apply_delta(delta(3, accts))
        assert not any(silent.counts.values())
        assert view.value((7,), "count") == 1 + 3 + 3
