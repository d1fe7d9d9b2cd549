"""The golden invariant, property-tested.

For randomly generated chronicle-algebra expressions, random summaries,
and random append streams: the incrementally maintained persistent view
must equal from-scratch recomputation over the fully stored chronicles
(and every delta must carry only fresh sequence numbers — Theorem 4.1).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import AVG, COUNT, MAX, MIN, SUM, spec
from repro.algebra.ast import Node, scan
from repro.core.group import ChronicleGroup
from repro.relational.predicate import Or, attr_cmp, attr_eq
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary, ProjectSummary
from repro.sca.view import PersistentView, evaluate_summary

# ---------------------------------------------------------------------------
# Expression generator
#
# All generated expressions keep the base chronicle schema
# (sn, acct, mins) so unions/differences/joins stay type-compatible.
# ---------------------------------------------------------------------------

ACCT_RANGE = 4
MINS_RANGE = 10


@st.composite
def ca_expressions(draw, depth=2):
    """A function (calls, fees, customers) -> CA node of schema
    (sn, acct, mins[, state])."""
    if depth == 0:
        which = draw(st.sampled_from(["calls", "fees"]))
        return lambda calls, fees, customers: scan(calls if which == "calls" else fees)
    op = draw(
        st.sampled_from(
            ["select", "select_or", "union", "difference", "base", "base"]
        )
    )
    if op == "base":
        return draw(ca_expressions(depth=0))
    if op in ("select", "select_or"):
        child = draw(ca_expressions(depth=depth - 1))
        attr = draw(st.sampled_from(["acct", "mins"]))
        operator = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        bound = draw(st.integers(0, MINS_RANGE))
        if op == "select":
            predicate = attr_cmp(attr, operator, bound)
        else:
            bound2 = draw(st.integers(0, ACCT_RANGE))
            predicate = Or(attr_cmp(attr, operator, bound), attr_eq("acct", bound2))
        return lambda calls, fees, customers, c=child, p=predicate: c(
            calls, fees, customers
        ).select(p)
    left = draw(ca_expressions(depth=depth - 1))
    right = draw(ca_expressions(depth=depth - 1))
    if op == "union":
        return lambda calls, fees, customers, l=left, r=right: l(
            calls, fees, customers
        ).union(r(calls, fees, customers))
    return lambda calls, fees, customers, l=left, r=right: l(
        calls, fees, customers
    ).minus(r(calls, fees, customers))


@st.composite
def summaries(draw, with_relation):
    """A function (node, customers) -> Summary over the node."""
    kind = draw(st.sampled_from(["project", "group", "group_global"]))
    join_relation = with_relation and draw(st.booleans())

    def build(node: Node, customers: Relation):
        if join_relation:
            node = node.keyjoin(customers, [("acct", "acct")])
            group_attr = draw(st.sampled_from(["acct", "state"]))
        else:
            group_attr = "acct"
        if kind == "project":
            names = ["acct", "mins"] if not join_relation else ["acct", "state"]
            return ProjectSummary(node, names)
        aggs = [spec(SUM, "mins"), spec(COUNT), spec(MIN, "mins"), spec(MAX, "mins"),
                spec(AVG, "mins")]
        chosen = draw(
            st.lists(st.sampled_from(range(len(aggs))), min_size=1, max_size=3, unique=True)
        )
        selected = [aggs[i] for i in chosen]
        if kind == "group_global":
            return GroupBySummary(node, [], selected)
        return GroupBySummary(node, [group_attr], selected)

    return build


events_strategy = st.lists(
    st.tuples(
        st.sampled_from(["calls", "fees", "both"]),
        st.lists(
            st.tuples(st.integers(0, ACCT_RANGE - 1), st.integers(0, MINS_RANGE)),
            min_size=1,
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=12,
)


def run_scenario(expression_factory, summary_factory, events):
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
    fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")])
    customers = Relation(
        "customers", Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"])
    )
    for acct in range(ACCT_RANGE):
        customers.insert({"acct": acct, "state": "NJ" if acct % 2 else "NY"})
    node = expression_factory(calls, fees, customers)
    summary = summary_factory(node, customers)
    view = PersistentView("v", summary)
    attach_view(view, group)
    for target, records in events:
        payload = [{"acct": acct, "mins": mins} for acct, mins in records]
        if target == "both":
            group.append_simultaneous({"calls": payload, "fees": payload})
        else:
            group.append(target, payload)
    incremental = sorted(tuple(r.values) for r in view)
    batch = sorted(tuple(r.values) for r in evaluate_summary(summary))
    assert incremental == batch


@settings(max_examples=120, deadline=None)
@given(ca_expressions(), summaries(with_relation=True), events_strategy)
def test_incremental_equals_batch(expression_factory, summary_factory, events):
    run_scenario(expression_factory, summary_factory, events)


@settings(max_examples=60, deadline=None)
@given(ca_expressions(depth=3), summaries(with_relation=False), events_strategy)
def test_incremental_equals_batch_deep_expressions(
    expression_factory, summary_factory, events
):
    run_scenario(expression_factory, summary_factory, events)


@settings(max_examples=60, deadline=None)
@given(events_strategy)
def test_seq_join_incremental_equals_batch(events):
    """The sequence-number equijoin, exercised with simultaneous appends."""
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
    fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")])
    customers = Relation(
        "customers", Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"])
    )
    node = scan(calls).join(scan(fees))
    summary = GroupBySummary(node, ["acct"], [spec(COUNT), spec(SUM, "r_mins")])
    view = PersistentView("v", summary)
    attach_view(view, group)
    for target, records in events:
        payload = [{"acct": acct, "mins": mins} for acct, mins in records]
        if target == "both":
            group.append_simultaneous({"calls": payload, "fees": payload})
        else:
            group.append(target, payload)
    incremental = sorted(tuple(r.values) for r in view)
    batch = sorted(tuple(r.values) for r in evaluate_summary(summary))
    assert incremental == batch
