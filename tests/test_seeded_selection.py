"""Select once: the dispatch index hands each selection view its delta.

A view whose χ is a selection chain over one chronicle scan
(σ…σ(scan C)) is *seeded*: the rows its dispatch entry accepts are its
delta, the registry puts them into the per-event delta cache under the
view's interned root, and its compiled plan reads them there instead of
testing the rows again.  These tests pin that:

* the residual test of a seeded view runs once per (row, filed entry) per
  event, never again in the plan;
* a differential property over generated catalogs (the recipes of
  ``tests/test_one_walk.py``): the seeded registry and the batch oracle
  agree, with ``chronicle_read == 0``,
  across NULLs, a σ root registered twice, a seeded root shared inside a
  join view, ``append_simultaneous``, ``ingest`` windows and drop →
  re-define;
* the compiled shape: seeded roots and chronicle scans are not wrapped in
  the delta cache, and EXPLAIN shows a seeded root as one step.
"""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChronicleDatabase
from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.obs.explain import explain_analyze
from repro.relational.predicate import Comparison
from repro.relational.schema import Attribute
from repro.sca.summarize import GroupBySummary
from repro.sca.view import evaluate_summary
from tests.test_one_walk import _predicates, build, flat_recipes

# ---------------------------------------------------------------------------
# Exactly once
# ---------------------------------------------------------------------------


class CountingComparison(Comparison):
    """``attr op rhs`` whose compiled test counts its calls."""

    __slots__ = ("calls",)

    def __init__(self, attr, op, rhs):
        super().__init__(attr, op, rhs)
        self.calls = 0
        compare = self._fn

        def counting(left, right):
            self.calls += 1
            return compare(left, right)

        self._fn = counting


def calls_db():
    db = ChronicleDatabase()
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
    return db


@pytest.mark.parametrize("keyed", [False, True], ids=["always-entry", "dispatch-keyed"])
def test_a_seeded_residual_runs_once_per_row_and_entry(keyed):
    db = calls_db()
    calls = db.chronicle("calls")
    residual = CountingComparison("minutes", ">", 10)
    node = scan(calls)
    if keyed:  # filed under caller = 1; the residual tests that bucket's rows
        node = node.select(Comparison("caller", "=", 1))
    node = node.select(residual)
    view = db.define_view(
        GroupBySummary(node, ["caller"], [spec(SUM, "minutes", output="total")]), name="v"
    )
    assert db.registry._views["v"].seeded
    events = [
        [{"caller": 1, "minutes": 20}],
        [{"caller": 1, "minutes": 20}, {"caller": 1, "minutes": 30}, {"caller": 1, "minutes": 5}],
        [{"caller": 1, "minutes": 3}],
        [{"caller": 2, "minutes": 40}, {"caller": 1, "minutes": 50}],
    ]
    for records in events:
        residual.calls = 0
        with GLOBAL_COUNTERS.measure() as cost:
            db.append("calls", records)
        tested = [r for r in records if not keyed or r["caller"] == 1]
        assert residual.calls == len(tested), records
        assert cost["chronicle_read"] == 0
    assert view.value((1,), "total") == 20 + 20 + 30 + 50
    expected_caller_2 = None if keyed else 40
    assert (view.value((2,), "total") if view.lookup((2,)) else None) == expected_caller_2


# ---------------------------------------------------------------------------
# The compiled shape
# ---------------------------------------------------------------------------


def join_db():
    db = calls_db()
    db.create_relation("subscribers", [("number", "INT"), ("plan", "STR")], key=["number"])
    for number in range(4):
        db.relation("subscribers").insert({"number": number, "plan": "ab"[number % 2]})
    db.define_view(
        "DEFINE VIEW long_calls AS SELECT caller, COUNT(*) AS n FROM calls "
        "WHERE minutes > 10 GROUP BY caller"
    )
    db.define_view(
        "DEFINE VIEW long_by_plan AS SELECT plan, SUM(minutes) AS m FROM calls "
        "JOIN subscribers ON calls.caller = subscribers.number WHERE minutes > 10 GROUP BY plan"
    )
    db.define_view("DEFINE VIEW usage AS SELECT caller, COUNT(*) AS n FROM calls GROUP BY caller")
    return db


def test_a_seeded_root_shared_inside_a_join_is_read_not_recomputed():
    db = join_db()
    registry = db.registry
    seeded_root = registry.interned_expression("long_calls")
    # The join view's chronicle side is the same interned σ(scan) node.
    assert registry.interned_expression("long_by_plan").children[0] is seeded_root
    assert [name for name, r in registry._views.items() if r.seeded] == ["long_calls"]
    with GLOBAL_COUNTERS.measure() as cost:
        db.append("calls", [{"caller": 1, "minutes": 20}, {"caller": 2, "minutes": 5}])
    # No step is served from the cache: the seeded root is read as a seed,
    # and the shared scan under `usage` is not a cache point.
    assert cost["delta_cache_hit"] == 0
    assert cost["chronicle_read"] == 0
    assert db.view_value("long_calls", (1,), "n") == 1
    assert db.view_value("long_by_plan", ("b",), "m") == 20
    assert db.view_value("usage", (2,), "n") == 1


def test_explain_shows_a_seeded_root_as_one_step():
    db = join_db()
    seeded = db.explain("long_calls")
    assert seeded.plan.to_dict() == {
        "kind": "Select",
        "detail": "σ (minutes > 10)",
        "fused": ["scan calls"],
        "seeded": True,
    }
    assert "Select σ (minutes > 10) ⨟ scan calls [seeded by dispatch]" in seeded.format()
    joined = db.explain("long_by_plan").plan
    (child,) = joined.children
    assert child.seeded and child.children == []
    # The scan is referenced by all three plans, but it is not a cache point.
    usage = db.explain("usage").plan
    assert usage.kind == "ChronicleScan" and usage.refs == 3 and not usage.shared


def test_explain_analyze_matches_the_seeded_span():
    db = join_db()
    report = explain_analyze(
        db,
        "long_calls",
        events=3,
        batch=2,
        record_factory=lambda i: {"caller": i % 4, "minutes": 11 + i},
    )
    # One delta span per maintained event, and no nested scan span.
    assert set(report.measurements) == {"compiled/Select"}
    select = report.measurements["compiled/Select"]
    assert (select.calls, select.rows) == (3, 6)


# ---------------------------------------------------------------------------
# Differential property
# ---------------------------------------------------------------------------

#: The recipes' ``a`` and ``b``, nullable, and ``k``, each record's own
#: number: views group by ``k`` (the fold keeps no NULL keys), so a view
#: row is one χ row and its count the row's multiplicity.
ATTRIBUTES = [
    Attribute("k", "INT"),
    Attribute("a", "INT", nullable=True),
    Attribute("b", "INT", nullable=True),
]
CHRONICLES = ("c1", "c2")
#: The non-nullable attributes a generated χ can carry (``state`` comes
#: with the key join).
GROUPING = ("k", "state")


class Side:
    """One database over the recipe environment of ``test_one_walk``."""

    def __init__(self):
        self.db = ChronicleDatabase()
        for name in CHRONICLES:
            self.db.create_chronicle(name, ATTRIBUTES)
        customers = self.db.create_relation(
            "customers", [("acct", "INT"), ("state", "STR")], key=["acct"]
        )
        plans = self.db.create_relation("plans", [("plan", "STR"), ("rate", "INT")], key=["plan"])
        for acct in (-1, 0, 2):
            customers.insert({"acct": acct, "state": "s%d" % (acct % 2)})
        for plan, rate in (("p", 1), ("q", 2)):
            plans.insert({"plan": plan, "rate": rate})
        self.env = SimpleNamespace(
            chronicles={name: self.db.chronicle(name) for name in CHRONICLES},
            relations={"customers": customers, "plans": plans},
        )

    def define(self, name, recipe):
        node = build(recipe, self.env)
        grouping = [n for n in node.schema.names if n in GROUPING]
        self.db.define_view(GroupBySummary(node, grouping, [spec(COUNT)]), name=name)

    def rows(self, name):
        return sorted(map(repr, (r.values for r in self.db.view(name))))


#: A seeded chain: one to three selections over one scan.
scans = st.tuples(st.just("scan"), st.sampled_from(CHRONICLES))
seeded_chains = st.recursive(
    st.tuples(st.just("select"), scans, _predicates()),
    lambda inner: st.tuples(st.just("select"), inner, _predicates()),
    max_leaves=3,
)
#: How a drawn chain is registered: alone, twice, under a key join, under
#: a projection, or beside an arbitrary flat tree over it.
placements = st.sampled_from(["alone", "twice", "keyjoin", "project", "union"])
catalogs = st.lists(st.tuples(seeded_chains, placements, flat_recipes), min_size=1, max_size=3)

values = st.sampled_from([None, -2, -1, 0, 1, 2])
records = st.fixed_dictionaries({"a": values, "b": values})
batches = st.lists(records, min_size=1, max_size=3)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.sampled_from(CHRONICLES), batches),
        st.tuples(st.just("simultaneous"), batches, batches),
        st.tuples(
            st.just("ingest"), st.sampled_from(CHRONICLES), st.lists(batches, min_size=1, max_size=3)
        ),
        st.tuples(st.just("redefine"), st.integers(min_value=0)),
    ),
    min_size=1,
    max_size=8,
)


def expand(catalog):
    """``(name, recipe)`` for every view a drawn catalog registers."""
    views = []
    for index, (chain, placement, other) in enumerate(catalog):
        views.append((f"s{index}", chain))
        if placement == "twice":
            views.append((f"t{index}", chain))
        elif placement == "keyjoin":
            views.append((f"j{index}", ("keyjoin", chain)))
        elif placement == "project":
            views.append((f"p{index}", ("project", chain, ("sn", "k", "a"))))
        elif placement == "union":
            views.append((f"u{index}", ("union", chain, other)))
    return views


def numbered(op, numbers):
    """*op* with every record given the next ``k``."""

    def batch(records):
        return [dict(record, k=next(numbers)) for record in records]

    if op[0] == "append":
        return op[0], op[1], batch(op[2])
    if op[0] == "simultaneous":
        return op[0], batch(op[1]), batch(op[2])
    return op[0], op[1], [batch(records) for records in op[2]]


def write(side, op):
    kind = op[0]
    if kind == "append":
        side.db.append(op[1], op[2])
    elif kind == "simultaneous":
        side.db.append_simultaneous({"c1": op[1], "c2": op[2]})
    else:
        side.db.ingest(op[1], op[2])


@settings(max_examples=300, deadline=None)
@given(catalogs, operations)
def test_seeded_equals_the_batch_oracle(catalog, ops):
    seeded = Side()
    views = expand(catalog)
    for name, recipe in views:
        seeded.define(name, recipe)
    assert any(r.seeded for r in seeded.db.registry._views.values())
    numbers = itertools.count()
    for op in ops:
        if op[0] == "redefine":  # drop → re-define, materialized from history
            name, recipe = views[op[1] % len(views)]
            seeded.db.drop_view(name)
            seeded.define(name, recipe)
            continue
        with GLOBAL_COUNTERS.measure() as cost:
            write(seeded, numbered(op, numbers))
        assert cost["chronicle_read"] == 0
    for name, _ in views:
        summary = seeded.db.view(name).summary
        oracle = sorted(map(repr, (r.values for r in evaluate_summary(summary))))
        assert seeded.rows(name) == oracle, name
