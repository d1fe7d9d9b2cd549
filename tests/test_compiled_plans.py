"""Compiled maintenance plans: equivalence, interning, and fast paths.

Compiled plans (:mod:`repro.algebra.plan`) are the only maintenance
path, so they must be observationally identical to the literal Theorem
4.1 rules: for any CA/SCA expression and any append stream, a view
maintained by the registry's plans — and one maintained by its own
standalone plan — holds exactly the rows of one whose χ-deltas come from
:func:`repro.algebra.reference.propagate`, and all match the
batch-recompute oracle.  On top of equivalence, structural interning
must make independently defined views share subexpression deltas —
verified through ``GLOBAL_COUNTERS``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import AVG, COUNT, MAX, MIN, SUM, spec
from repro.algebra.ast import ChronicleProduct, NonEquiSeqJoin, scan
from repro.algebra.plan import Interner, PlanCompiler, compile_predicate
from repro.algebra.reference import propagate
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.core.chronicle import maintenance_guard
from repro.core.database import ChronicleDatabase
from repro.core.delta import Delta
from repro.core.group import ChronicleGroup
from repro.errors import (
    ChronicleAccessError,
    SchemaError,
    UnknownAttributeError,
    ViewRegistrationError,
)
from repro.relational.predicate import Or, attr_cmp, attr_eq, attrs_cmp
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import Row
from repro.sca.maintenance import attach_view, event_deltas
from repro.sca.summarize import GroupBySummary, ProjectSummary
from repro.sca.view import PersistentView, evaluate_summary
from repro.views.registry import ViewRegistry

ACCT_RANGE = 4
MINS_RANGE = 10


def build_group():
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
    fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")])
    customers = Relation(
        "customers", Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"])
    )
    for acct in range(ACCT_RANGE):
        customers.insert({"acct": acct, "state": "NJ" if acct % 2 else "NY"})
    return group, calls, fees, customers


def run_events(group, events):
    for target, records in events:
        payload = [{"acct": acct, "mins": mins} for acct, mins in records]
        if target == "both":
            group.append_simultaneous({"calls": payload, "fees": payload})
        else:
            group.append(target, payload)


def attach_reference_view(view, group):
    """Maintain *view* with χ-deltas from the reference rules."""

    def listener(event_group, event):
        deltas = event_deltas(event_group, event)
        if deltas:
            with maintenance_guard():
                delta = propagate(view.expression, deltas)
            view.apply_delta(delta)

    group.subscribe(listener)
    return view


def assert_compiled_matches_reference(node_factory, summary_factory, events):
    """Maintain one summary by registry plan, standalone plan and the
    reference rules; all three states equal the batch oracle."""
    group, calls, fees, customers = build_group()
    node = node_factory(calls, fees, customers)
    summary = summary_factory(node, customers)
    registry = ViewRegistry()
    registry.attach(group)
    view_c = registry.register(PersistentView("v", summary))
    view_s = PersistentView("v", summary)
    attach_view(view_s, group)
    view_r = attach_reference_view(PersistentView("v", summary), group)
    with GLOBAL_COUNTERS.measure() as cost:
        run_events(group, events)
    assert cost["chronicle_read"] == 0
    rows_c = sorted(tuple(r.values) for r in view_c)
    assert rows_c == sorted(tuple(r.values) for r in view_r)
    assert rows_c == sorted(tuple(r.values) for r in view_s)
    oracle = sorted(tuple(r.values) for r in evaluate_summary(summary))
    assert rows_c == oracle


# ---------------------------------------------------------------------------
# Property test: randomized CA/SCA expressions and append streams
# ---------------------------------------------------------------------------


@st.composite
def ca_expressions(draw, depth=2):
    """A function (calls, fees, customers) -> CA node of schema
    (sn, acct, mins)."""
    if depth == 0:
        which = draw(st.sampled_from(["calls", "fees"]))
        return lambda calls, fees, customers: scan(calls if which == "calls" else fees)
    op = draw(
        st.sampled_from(
            ["select", "select_or", "union", "difference", "join", "base", "base"]
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
    if op == "join":
        # SeqJoin changes the schema, so keep it shallow: join two bases
        # and project back onto the common (sn, acct, mins) shape.
        return lambda calls, fees, customers, l=left, r=right: l(
            calls, fees, customers
        ).join(r(calls, fees, customers)).project(["sn", "acct", "mins"])
    if op == "union":
        return lambda calls, fees, customers, l=left, r=right: l(
            calls, fees, customers
        ).union(r(calls, fees, customers))
    return lambda calls, fees, customers, l=left, r=right: l(
        calls, fees, customers
    ).minus(r(calls, fees, customers))


@st.composite
def summaries(draw):
    """A function (node, customers) -> Summary over the node."""
    kind = draw(st.sampled_from(["project", "group", "group_global"]))
    join_relation = draw(st.booleans())
    group_attr = draw(st.sampled_from(["acct", "state"])) if join_relation else "acct"
    aggs = [spec(SUM, "mins"), spec(COUNT), spec(MIN, "mins"), spec(MAX, "mins"),
            spec(AVG, "mins")]
    chosen = draw(
        st.lists(st.sampled_from(range(len(aggs))), min_size=1, max_size=3, unique=True)
    )
    selected = [aggs[i] for i in chosen]

    def build(node, customers):
        if join_relation:
            node = node.keyjoin(customers, [("acct", "acct")])
        if kind == "project":
            names = ["acct", "mins"] if not join_relation else ["acct", "state"]
            return ProjectSummary(node, names)
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
    max_size=10,
)


@settings(max_examples=80, deadline=None)
@given(ca_expressions(), summaries(), events_strategy)
def test_compiled_equals_reference(expression_factory, summary_factory, events):
    assert_compiled_matches_reference(expression_factory, summary_factory, events)


@settings(max_examples=40, deadline=None)
@given(ca_expressions(depth=3), summaries(), events_strategy)
def test_compiled_equals_reference_deep(expression_factory, summary_factory, events):
    assert_compiled_matches_reference(expression_factory, summary_factory, events)


# ---------------------------------------------------------------------------
# Deterministic equivalence of the fused chains and joins
# ---------------------------------------------------------------------------


class TestFusedPipelines:
    def test_project_select_chain(self):
        events = [("calls", [(a % ACCT_RANGE, m % (MINS_RANGE + 1))])
                  for a, m in enumerate(range(25))]
        assert_compiled_matches_reference(
            lambda calls, fees, customers: scan(calls)
            .select(attr_cmp("mins", ">", 1))
            .project(["sn", "mins"])
            .select(attr_cmp("mins", "<", 8)),
            lambda node, customers: ProjectSummary(node, ["mins"]),
            events,
        )

    def test_seq_join_with_simultaneous_appends(self):
        events = [("both", [(i % ACCT_RANGE, i % MINS_RANGE), (1, 2)]) for i in range(8)]
        assert_compiled_matches_reference(
            lambda calls, fees, customers: scan(calls).join(scan(fees)),
            lambda node, customers: GroupBySummary(
                node, ["acct"], [spec(COUNT), spec(SUM, "r_mins")]
            ),
            events,
        )

    def test_rel_product_with_select(self):
        events = [("calls", [(i % ACCT_RANGE, i % MINS_RANGE)]) for i in range(10)]
        assert_compiled_matches_reference(
            lambda calls, fees, customers: scan(calls)
            .product(customers)
            .select(attrs_cmp("acct", "=", "r_acct")),
            lambda node, customers: GroupBySummary(node, ["state"], [spec(SUM, "mins")]),
            events,
        )

    def test_groupby_seq_node(self):
        events = [("calls", [(i % 2, 3), (i % 2, 3)]) for i in range(6)]
        assert_compiled_matches_reference(
            lambda calls, fees, customers: scan(calls).groupby_sn(
                ["sn", "acct"], [spec(SUM, "mins", output="batch_mins")]
            ),
            lambda node, customers: GroupBySummary(
                node, ["acct"], [spec(SUM, "batch_mins"), spec(COUNT)]
            ),
            events,
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda calls, fees: ChronicleProduct(scan(calls), scan(fees)),
            lambda calls, fees: NonEquiSeqJoin(scan(calls), scan(fees), "<"),
            # Buried under CA operators, the step still raises.
            lambda calls, fees: ChronicleProduct(scan(calls), scan(fees)).select(
                attr_cmp("mins", ">", 0)
            ),
        ],
    )
    def test_extension_operator_step_raises_without_reading(self, build):
        group, calls, fees, _ = build_group()
        group.append(fees, {"acct": 1, "mins": 1})
        compiler = PlanCompiler()
        plan = compiler.compile(compiler.add_root(build(calls, fees)))
        rows = group.append(calls, {"acct": 1, "mins": 2})
        deltas = {"calls": Delta(calls.schema, rows)}
        # Theorem 4.3: no delta rule over deltas alone.  The compiled step
        # raises by itself — outside the maintenance guard too — and never
        # touches a chronicle store.
        with GLOBAL_COUNTERS.measure() as cost:
            with pytest.raises(ChronicleAccessError, match="Theorem 4.3"):
                plan(deltas)
        assert cost["chronicle_read"] == 0
        # The reference rules agree when access is not granted...
        with pytest.raises(ChronicleAccessError):
            propagate(plan.root, deltas)
        # ...and are the only code that can compute the delta when it is.
        with GLOBAL_COUNTERS.measure() as cost:
            propagate(plan.root, deltas, allow_chronicle_access=True)
        assert cost["chronicle_read"] > 0


# ---------------------------------------------------------------------------
# Structural interning / cross-view sharing
# ---------------------------------------------------------------------------


class TestInterning:
    def test_equal_trees_intern_to_one_node(self):
        _, calls, _, _ = build_group()
        interner = Interner()
        a = interner.intern(scan(calls).select(attr_cmp("mins", ">", 2)))
        b = interner.intern(scan(calls).select(attr_cmp("mins", ">", 2)))
        assert a is b

    def test_different_predicates_stay_distinct(self):
        _, calls, _, _ = build_group()
        interner = Interner()
        a = interner.intern(scan(calls).select(attr_cmp("mins", ">", 2)))
        b = interner.intern(scan(calls).select(attr_cmp("mins", ">", 3)))
        assert a is not b
        assert a.children[0] is b.children[0]  # the scan is still shared

    def test_text_defined_views_share_one_delta_computation(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        a = db.define_view(
            "DEFINE VIEW a AS SELECT caller, SUM(minutes) AS total "
            "FROM calls WHERE minutes > 2 GROUP BY caller"
        )
        b = db.define_view(
            "DEFINE VIEW b AS SELECT caller, COUNT(*) AS n "
            "FROM calls WHERE minutes > 2 GROUP BY caller"
        )
        # Independently compiled from text, yet one interned expression.
        assert db.registry.interned_expression("a") is db.registry.interned_expression("b")
        with GLOBAL_COUNTERS.measure() as cost:
            db.append("calls", {"caller": 1, "minutes": 5})
        # The shared filtered scan is evaluated once and served from the
        # per-event cache for the second view: one selection tuple_op plus
        # one fold per view, and exactly one cache hit.
        assert cost["delta_cache_hit"] == 1
        assert cost["tuple_op"] == 3
        assert a.value((1,), "total") == 5
        assert b.value((1,), "n") == 1

    def test_partial_sharing_breaks_fusion_at_shared_node(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        db.define_view(
            "DEFINE VIEW a AS SELECT caller, SUM(minutes) AS total "
            "FROM calls WHERE minutes > 0 GROUP BY caller"
        )
        db.define_view(
            "DEFINE VIEW b AS SELECT caller, SUM(minutes) AS total "
            "FROM calls WHERE minutes > 0 AND caller > 0 GROUP BY caller"
        )
        root_a = db.registry.interned_expression("a")
        root_b = db.registry.interned_expression("b")
        assert root_a is not root_b
        # The trees differ but overlap: at least the scan is one object.
        shared = {id(n) for n in root_a.walk()} & {id(n) for n in root_b.walk()}
        assert shared
        with GLOBAL_COUNTERS.measure() as cost:
            db.append("calls", {"caller": 1, "minutes": 5})
        assert cost["delta_cache_hit"] >= 1

    def test_sharing_preserves_results_over_stream(self):
        import random

        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        a = db.define_view(
            "DEFINE VIEW a AS SELECT caller, SUM(minutes) AS total "
            "FROM calls WHERE minutes > 2 GROUP BY caller"
        )
        b = db.define_view(
            "DEFINE VIEW b AS SELECT COUNT(*) AS n FROM calls WHERE minutes > 2"
        )
        rng = random.Random(7)
        for _ in range(120):
            db.append(
                "calls", {"caller": rng.randrange(4), "minutes": rng.randrange(6)}
            )
        assert sorted(r.values for r in a) == sorted(
            r.values for r in evaluate_summary(a.summary)
        )
        assert list(b)[0]["n"] == list(evaluate_summary(b.summary))[0]["n"]

    def test_unregister_releases_sharing(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        db.define_view(
            "DEFINE VIEW a AS SELECT caller, SUM(minutes) AS total "
            "FROM calls WHERE minutes > 2 GROUP BY caller"
        )
        b = db.define_view(
            "DEFINE VIEW b AS SELECT caller, COUNT(*) AS n "
            "FROM calls WHERE minutes > 2 GROUP BY caller"
        )
        db.drop_view("a")
        with pytest.raises(ViewRegistrationError):
            db.registry.interned_expression("a")
        with GLOBAL_COUNTERS.measure() as cost:
            db.append("calls", {"caller": 2, "minutes": 9})
        # Only one consumer left: nothing is served from the cache.
        assert cost["delta_cache_hit"] == 0
        assert b.value((2,), "n") == 1

    def test_registry_prefilter_skips_views(self):
        registry = ViewRegistry(prefilter=True)
        group, calls, _, _ = build_group()
        registry.attach(group)
        selective = registry.register(
            PersistentView(
                "big",
                GroupBySummary(
                    scan(calls).select(attr_cmp("mins", ">", 100)),
                    ["acct"],
                    [spec(COUNT)],
                ),
            )
        )
        group.append(calls, {"acct": 1, "mins": 5})
        assert selective.maintenance_count == 0  # prefiltered out
        group.append(calls, {"acct": 1, "mins": 500})
        assert selective.maintenance_count == 1
        assert registry.stats["maintained_views"] == 1

    def test_interner_forgets_dropped_views(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        live = db.define_view(
            "DEFINE VIEW live AS SELECT caller, SUM(minutes) AS total "
            "FROM calls WHERE minutes > 2 GROUP BY caller"
        )
        interner = db.registry._compiler.interner
        baseline = len(interner)
        for cycle in range(100):
            # A constant no other view uses: two nodes nobody else needs.
            db.define_view(
                f"DEFINE VIEW t AS SELECT caller, COUNT(*) AS n FROM calls "
                f"WHERE minutes > {100 + cycle} AND caller > {cycle} GROUP BY caller"
            )
            assert len(interner) > baseline
            db.drop_view("t")
            assert len(interner) == baseline
        assert not set(db.registry._compiler._refs) - {
            id(node) for node in db.registry.interned_expression("live").walk()
        }
        # Eviction left the live view's nodes canonical: a structurally
        # equal view defined afterwards shares them.
        twin = db.define_view(
            "DEFINE VIEW twin AS SELECT caller, COUNT(*) AS n "
            "FROM calls WHERE minutes > 2 GROUP BY caller"
        )
        assert db.registry.interned_expression("twin") is db.registry.interned_expression(
            "live"
        )
        with GLOBAL_COUNTERS.measure() as cost:
            db.append("calls", {"caller": 1, "minutes": 5})
        assert cost["delta_cache_hit"] == 1
        assert live.value((1,), "total") == 5 and twin.value((1,), "n") == 1


# ---------------------------------------------------------------------------
# Compiled predicates
# ---------------------------------------------------------------------------


class TestCompilePredicate:
    def test_positions_not_names(self):
        schema = Schema.build(("a", "INT"), ("b", "INT"))
        test = compile_predicate(attr_cmp("b", ">=", 3), schema)
        assert test((0, 3)) and not test((0, 2))

    def test_null_semantics_match_evaluate(self):
        schema = Schema.build(("a", "INT"), ("b", "INT"))
        for predicate in (
            attr_cmp("a", "<", 5),
            attrs_cmp("a", "=", "b"),
            Or(attr_cmp("a", ">", 1), attr_eq("b", 0)),
        ):
            test = compile_predicate(predicate, schema)
            for values in ((None, 0), (2, None), (2, 2), (0, 0)):
                row = Row(schema, values, validate=False)
                assert test(values) == predicate.evaluate(row)


# ---------------------------------------------------------------------------
# Batched append fast path
# ---------------------------------------------------------------------------


class TestBatchedAdmit:
    def test_unchecked_constructor(self):
        schema = Schema.build(("a", "INT"), ("b", "STR"))
        row = Row.unchecked(schema, (1, "x"))
        assert row.values == (1, "x") and row.schema is schema
        assert row == Row(schema, [1, "x"])

    def test_schema_name_caches(self):
        schema = Schema.build(("a", "INT"), ("b", "STR"))
        assert schema.names is schema.names  # cached, not rebuilt
        assert schema.names_set == frozenset(("a", "b"))

    def test_batch_matches_single_admit_forms(self):
        group, calls, _, _ = build_group()
        rows = group.append(
            "calls",
            [
                {"acct": 1, "mins": 2},
                {"sn": None, "acct": 2, "mins": 3},
                (4, 5),
            ],
        )
        assert [r.values for r in rows] == [(0, 1, 2), (0, 2, 3), (0, 4, 5)]

    def test_batch_rejects_unknown_attribute(self):
        group, calls, _, _ = build_group()
        with pytest.raises(UnknownAttributeError):
            group.append("calls", [{"acct": 1, "mins": 2, "zzz": 9}])
        # Extra key smuggled in place of the omitted sequence attribute.
        with pytest.raises(UnknownAttributeError):
            group.append("calls", [{"acct": 1, "mins": 2, "zzz": 9, "yyy": 1}])

    def test_batch_rejects_missing_attribute(self):
        group, calls, _, _ = build_group()
        with pytest.raises(SchemaError):
            group.append("calls", [{"acct": 1}])

    def test_batch_rejects_foreign_sequence_number(self):
        group, calls, _, _ = build_group()
        with pytest.raises(SchemaError):
            group.append("calls", [{"sn": 99, "acct": 1, "mins": 2}])
        with pytest.raises(SchemaError):
            group.append("calls", [(99, 1, 2)])

    def test_batch_validates_domains(self):
        group, calls, _, _ = build_group()
        with pytest.raises(Exception):
            group.append("calls", [{"acct": "not-an-int", "mins": 2}])

    def test_batch_deduplicates_within_event(self):
        group, calls, _, _ = build_group()
        rows = group.append("calls", [{"acct": 1, "mins": 2}, {"acct": 1, "mins": 2}])
        assert len(rows) == 1
