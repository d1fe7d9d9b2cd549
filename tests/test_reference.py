"""Tests for the reference delta rules (the Theorem 4.1 proof rules).

The master check: accumulating every append's delta must reproduce the
batch evaluation of the expression over the fully stored chronicles, and
every delta must carry only fresh sequence numbers (monotonicity).  The
compiled plan of the same expression — what actually maintains views —
must produce the same delta for every event.
"""

import pytest

from repro.aggregates import COUNT, MAX, SUM, spec
from repro.algebra.ast import ChronicleProduct, Node, NonEquiSeqJoin, scan
from repro.algebra.evaluate import evaluate
from repro.algebra.plan import standalone_plan
from repro.algebra.reference import propagate
from repro.core.delta import Delta
from repro.core.group import ChronicleGroup
from repro.errors import ChronicleAccessError
from repro.relational.predicate import Or, attr_cmp, attr_eq
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.versioned import VersionedRelation


def build():
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
    fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")])
    customers = Relation(
        "customers", Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"])
    )
    for acct, state in ((1, "NJ"), (2, "NY"), (3, "NJ")):
        customers.insert({"acct": acct, "state": state})
    return group, calls, fees, customers


def replay(group, expression, appends):
    """Apply appends while accumulating per-event deltas of *expression*.

    *appends* is a list of {chronicle_name: [records]} events.  Returns
    the accumulated delta rows (with freshness asserted per event).
    """
    accumulated = []
    plan = standalone_plan(expression)

    def listener(g, event):
        deltas = {
            name: Delta(g[name].schema, rows) for name, rows in event.items()
        }
        watermark_before = g.watermark - 1  # one sn issued per event
        delta = propagate(expression, deltas)
        delta.assert_fresh(watermark_before)
        assert sorted(r.values for r in plan(deltas).rows) == sorted(
            r.values for r in delta.rows
        )
        accumulated.extend(delta.rows)

    group.subscribe(listener)
    try:
        for event in appends:
            group.append_simultaneous(event)
    finally:
        group.unsubscribe(listener)
    return accumulated


def assert_incremental_matches_batch(group, expression, appends):
    accumulated = replay(group, expression, appends)
    batch = evaluate(expression)
    assert sorted(r.values for r in accumulated) == sorted(
        r.values for r in batch.rows
    )


class TestOperatorRules:
    def test_scan(self):
        group, calls, _, _ = build()
        assert_incremental_matches_batch(
            group,
            scan(calls),
            [{"calls": {"acct": 1, "mins": 5}}, {"calls": {"acct": 2, "mins": 7}}],
        )

    def test_select(self):
        group, calls, _, _ = build()
        expression = scan(calls).select(attr_cmp("mins", ">", 5))
        assert_incremental_matches_batch(
            group,
            expression,
            [{"calls": {"acct": 1, "mins": 5}}, {"calls": {"acct": 2, "mins": 7}}],
        )

    def test_select_disjunction(self):
        group, calls, _, _ = build()
        expression = scan(calls).select(Or(attr_eq("acct", 1), attr_cmp("mins", ">", 90)))
        assert_incremental_matches_batch(
            group,
            expression,
            [
                {"calls": {"acct": 1, "mins": 5}},
                {"calls": {"acct": 2, "mins": 95}},
                {"calls": {"acct": 3, "mins": 10}},
            ],
        )

    def test_project(self):
        group, calls, _, _ = build()
        expression = scan(calls).project(["sn", "acct"])
        assert_incremental_matches_batch(
            group,
            expression,
            [
                {"calls": [{"acct": 1, "mins": 5}, {"acct": 1, "mins": 9}]},
                {"calls": {"acct": 2, "mins": 7}},
            ],
        )

    def test_union(self):
        group, calls, fees, _ = build()
        expression = scan(calls).union(scan(fees))
        assert_incremental_matches_batch(
            group,
            expression,
            [
                {"calls": {"acct": 1, "mins": 5}},
                {"fees": {"acct": 1, "mins": 2}},
                {"calls": {"acct": 2, "mins": 7}, "fees": {"acct": 2, "mins": 1}},
            ],
        )

    def test_union_dedups_same_tuple(self):
        group, calls, fees, _ = build()
        expression = scan(calls).union(scan(fees))
        # The same record simultaneously in both operands: one output tuple.
        accumulated = replay(
            group,
            expression,
            [{"calls": {"acct": 1, "mins": 5}, "fees": {"acct": 1, "mins": 5}}],
        )
        assert len(accumulated) == 1

    def test_difference(self):
        group, calls, fees, _ = build()
        expression = scan(calls).minus(scan(fees))
        assert_incremental_matches_batch(
            group,
            expression,
            [
                {"calls": {"acct": 1, "mins": 5}, "fees": {"acct": 1, "mins": 5}},
                {"calls": {"acct": 2, "mins": 7}},
                {"fees": {"acct": 3, "mins": 1}},
            ],
        )

    def test_seq_join(self):
        group, calls, fees, _ = build()
        expression = scan(calls).join(scan(fees))
        assert_incremental_matches_batch(
            group,
            expression,
            [
                {"calls": {"acct": 1, "mins": 5}, "fees": {"acct": 1, "mins": 2}},
                {"calls": {"acct": 2, "mins": 7}},  # no fee: no join output
                {"fees": {"acct": 3, "mins": 1}},   # no call: no join output
                {
                    "calls": [{"acct": 4, "mins": 1}, {"acct": 5, "mins": 2}],
                    "fees": {"acct": 4, "mins": 9},
                },
            ],
        )

    def test_groupby_sn(self):
        group, calls, _, _ = build()
        expression = scan(calls).groupby_sn(
            ["sn", "acct"], [spec(SUM, "mins"), spec(COUNT)]
        )
        assert_incremental_matches_batch(
            group,
            expression,
            [
                {"calls": [{"acct": 1, "mins": 5}, {"acct": 1, "mins": 7}]},
                {"calls": [{"acct": 1, "mins": 2}, {"acct": 2, "mins": 3}]},
            ],
        )

    def test_rel_product(self):
        group, calls, _, customers = build()
        expression = scan(calls).product(customers)
        assert_incremental_matches_batch(
            group,
            expression,
            [{"calls": {"acct": 1, "mins": 5}}, {"calls": {"acct": 2, "mins": 7}}],
        )

    def test_rel_keyjoin(self):
        group, calls, _, customers = build()
        expression = scan(calls).keyjoin(customers, [("acct", "acct")])
        assert_incremental_matches_batch(
            group,
            expression,
            [
                {"calls": {"acct": 1, "mins": 5}},
                {"calls": {"acct": 99, "mins": 1}},  # dangling: drops out
            ],
        )

    def test_composite_expression(self):
        group, calls, fees, customers = build()
        expression = (
            scan(calls)
            .union(scan(fees))
            .select(attr_cmp("mins", ">", 0))
            .keyjoin(customers, [("acct", "acct")])
            .project(["sn", "acct", "state"])
        )
        assert_incremental_matches_batch(
            group,
            expression,
            [
                {"calls": {"acct": 1, "mins": 5}},
                {"fees": {"acct": 2, "mins": 0}},
                {"calls": {"acct": 3, "mins": 2}, "fees": {"acct": 3, "mins": 4}},
            ],
        )

    def test_no_delta_for_untouched_chronicle(self):
        group, calls, fees, _ = build()
        expression = scan(fees)
        accumulated = replay(group, expression, [{"calls": {"acct": 1, "mins": 5}}])
        assert accumulated == []


class TestTemporalJoin:
    def test_keyjoin_uses_current_version(self):
        """Proactive updates change only future joins (Example 2.2)."""
        group, calls, _, _ = build()
        customers = VersionedRelation(
            "customers",
            Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"]),
            watermark=lambda: group.watermark,
        )
        customers.insert({"acct": 1, "state": "NJ"})
        expression = scan(calls).keyjoin(customers, [("acct", "acct")])
        accumulated = replay(group, expression, [{"calls": {"acct": 1, "mins": 5}}])
        assert accumulated[0]["state"] == "NJ"
        customers.update_key((1,), state="NY")  # proactive
        accumulated = replay(group, expression, [{"calls": {"acct": 1, "mins": 7}}])
        assert accumulated[0]["state"] == "NY"
        # Batch evaluation honours the temporal join: the first call still
        # joins the NJ version.
        batch = evaluate(expression)
        states = sorted(r["state"] for r in batch.rows)
        assert states == ["NJ", "NY"]


class TestExtensionOperators:
    def test_chronicle_product_refused_without_access(self):
        group, calls, fees, _ = build()
        expression = ChronicleProduct(scan(calls), scan(fees))
        deltas = {"calls": Delta(calls.schema, [])}
        with pytest.raises(ChronicleAccessError):
            propagate(expression, deltas)

    def test_chronicle_product_with_access_matches_batch(self):
        group, calls, fees, _ = build()
        expression = ChronicleProduct(scan(calls), scan(fees))
        accumulated = []

        def listener(g, event):
            deltas = {name: Delta(g[name].schema, rows) for name, rows in event.items()}
            delta = propagate(expression, deltas, allow_chronicle_access=True)
            accumulated.extend(delta.rows)

        group.subscribe(listener)
        group.append(calls, {"acct": 1, "mins": 5})
        group.append(fees, {"acct": 1, "mins": 2})
        group.append(calls, {"acct": 2, "mins": 7})
        batch = evaluate(expression)
        assert sorted(r.values for r in accumulated) == sorted(r.values for r in batch.rows)

    def test_non_equi_join_refused_without_access(self):
        group, calls, fees, _ = build()
        expression = NonEquiSeqJoin(scan(calls), scan(fees), "<")
        with pytest.raises(ChronicleAccessError):
            propagate(expression, {"calls": Delta(calls.schema, [])})

    def test_non_equi_join_with_access_matches_batch(self):
        group, calls, fees, _ = build()
        expression = NonEquiSeqJoin(scan(calls), scan(fees), "<")
        accumulated = []

        def listener(g, event):
            deltas = {name: Delta(g[name].schema, rows) for name, rows in event.items()}
            delta = propagate(expression, deltas, allow_chronicle_access=True)
            accumulated.extend(delta.rows)

        group.subscribe(listener)
        group.append(calls, {"acct": 1, "mins": 5})
        group.append(fees, {"acct": 1, "mins": 2})
        group.append(calls, {"acct": 2, "mins": 7})
        group.append(fees, {"acct": 2, "mins": 3})
        batch = evaluate(expression)
        assert sorted(r.values for r in accumulated) == sorted(r.values for r in batch.rows)


class TestMonotonicity:
    def test_deltas_carry_only_fresh_sequence_numbers(self):
        """Theorem 4.1 on a composite expression: every per-event delta's
        sequence numbers exceed the pre-event watermark."""
        group, calls, fees, customers = build()
        expression = (
            scan(calls).union(scan(fees)).keyjoin(customers, [("acct", "acct")])
        )
        observed = []

        def listener(g, event):
            deltas = {name: Delta(g[name].schema, rows) for name, rows in event.items()}
            delta = propagate(expression, deltas)
            observed.append((g.watermark, delta.sequence_numbers()))

        group.subscribe(listener)
        group.append(calls, {"acct": 1, "mins": 5})
        group.append(fees, {"acct": 2, "mins": 2})
        group.append(calls, {"acct": 3, "mins": 7})
        for watermark, sequence_numbers in observed:
            assert all(sn == watermark for sn in sequence_numbers)
