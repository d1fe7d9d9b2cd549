"""Tests for affected-view identification (Section 5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.algebra.plan import compile_prefilter
from repro.core.group import ChronicleGroup
from repro.errors import ViewRegistrationError
from repro.obs import Observability, runtime
from repro.relational.predicate import And, Not, Or, attr_cmp, attr_eq, attrs_cmp
from repro.relational.schema import Attribute
from repro.relational.tuples import Row
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView
from repro.views.registry import ViewRegistry, scan_prefilters


def build():
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
    fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")])
    return group, calls, fees


def view_over(calls, name, predicate=None):
    node = scan(calls)
    if predicate is not None:
        node = node.select(predicate)
    return PersistentView(name, GroupBySummary(node, ["acct"], [spec(SUM, "mins")]))


class TestScanPrefilters:
    def test_unfiltered_scan_has_no_prefilter(self):
        _, calls, _ = build()
        filters = scan_prefilters(scan(calls))
        assert filters == {"calls": []}

    def test_selection_above_scan_collected(self):
        _, calls, _ = build()
        filters = scan_prefilters(scan(calls).select(attr_eq("acct", 1)))
        assert len(filters["calls"]) == 1

    def test_cascaded_selections_conjoined(self):
        _, calls, _ = build()
        node = scan(calls).select(attr_eq("acct", 1)).select(attr_cmp("mins", ">", 5))
        (predicate,) = scan_prefilters(node)["calls"]
        good = Row(calls.schema, [0, 1, 6])
        bad = Row(calls.schema, [0, 1, 3])
        assert predicate.evaluate(good)
        assert not predicate.evaluate(bad)

    def test_unfiltered_scan_wins_over_filtered(self):
        _, calls, _ = build()
        filtered = scan(calls).select(attr_eq("acct", 1))
        node = filtered.union(scan(calls))
        assert scan_prefilters(node)["calls"] == []

    def test_unfiltered_scan_wins_regardless_of_order(self):
        _, calls, _ = build()
        node = scan(calls).union(scan(calls).select(attr_eq("acct", 1)))
        assert scan_prefilters(node)["calls"] == []

    def test_selection_above_union_not_a_scan_filter(self):
        _, calls, fees = build()
        node = scan(calls).union(scan(fees)).select(attr_eq("acct", 1))
        # Conservative: the selection is not directly above a scan.
        assert scan_prefilters(node) == {"calls": [], "fees": []}


class TestRegistryRouting:
    def test_only_dependent_views_maintained(self):
        group, calls, fees = build()
        registry = ViewRegistry()
        registry.attach(group)
        calls_view = registry.register(view_over(calls, "calls_view"))
        fees_view = registry.register(view_over(fees, "fees_view"))
        group.append(calls, {"acct": 1, "mins": 5})
        assert calls_view.maintenance_count == 1
        assert fees_view.maintenance_count == 0

    def test_prefilter_skips_unaffected_views(self):
        group, calls, _ = build()
        registry = ViewRegistry(prefilter=True)
        registry.attach(group)
        selective = registry.register(
            view_over(calls, "acct1", attr_eq("acct", 1))
        )
        group.append(calls, {"acct": 2, "mins": 5})
        assert selective.maintenance_count == 0
        group.append(calls, {"acct": 1, "mins": 5})
        assert selective.maintenance_count == 1

    def test_prefilter_disabled_maintains_all(self):
        group, calls, _ = build()
        registry = ViewRegistry(prefilter=False)
        registry.attach(group)
        selective = registry.register(view_over(calls, "acct1", attr_eq("acct", 1)))
        group.append(calls, {"acct": 2, "mins": 5})
        assert selective.maintenance_count == 1  # maintained (vacuously)
        assert selective.value((2,), "sum_mins") is None

    def test_prefiltered_and_unfiltered_results_agree(self):
        group, calls, _ = build()
        fast = ViewRegistry(prefilter=True)
        group2 = ChronicleGroup("g2")
        calls2 = group2.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
        slow = ViewRegistry(prefilter=False)
        fast.attach(group)
        slow.attach(group2)
        fast_view = fast.register(view_over(calls, "v", attr_cmp("mins", ">", 5)))
        slow_view = slow.register(view_over(calls2, "v", attr_cmp("mins", ">", 5)))
        import random

        rng = random.Random(5)
        for _ in range(100):
            record = {"acct": rng.randrange(4), "mins": rng.randrange(12)}
            group.append(calls, dict(record))
            group2.append(calls2, dict(record))
        assert sorted(r.values for r in fast_view) == sorted(r.values for r in slow_view)
        assert fast_view.maintenance_count < slow_view.maintenance_count

    def test_stats_tracked(self):
        group, calls, _ = build()
        registry = ViewRegistry()
        registry.attach(group)
        registry.register(view_over(calls, "v", attr_eq("acct", 1)))
        group.append(calls, {"acct": 2, "mins": 5})
        group.append(calls, {"acct": 1, "mins": 5})
        stats = registry.stats
        assert stats["events"] == 2
        assert stats["candidate_views"] == 2
        assert stats["maintained_views"] == 1
        assert stats["prefilter_hits"] == 1
        assert stats["prefilter_misses"] == 1

    def test_views_examined_does_not_grow_with_registered_views(self):
        group, calls, _ = build()
        registry = ViewRegistry()
        registry.attach(group)
        for bucket in range(1000):
            registry.register(view_over(calls, f"b{bucket}", attr_eq("acct", bucket)))
        before = registry.stats
        group.append(calls, {"acct": 500, "mins": 5})
        after = registry.stats
        assert after["candidate_views"] - before["candidate_views"] == 1000
        assert after["views_examined"] - before["views_examined"] <= 2
        assert after["maintained_views"] - before["maintained_views"] == 1
        assert registry.view("b500").value((500,), "sum_mins") == 5

    def test_dispatch_keys_follow_predicate_equality(self):
        """1 / 1.0 / True share a bucket (they are ``==``); NULL finds none."""
        side = Side(prefilter=True)
        side.register("null_const", [("calls", [attr_eq("mins", None)])])
        side.register("float_const", [("calls", [attr_eq("acct", 1.0)])])
        side.register("bool_const", [("calls", [attr_eq("acct", True)])])
        side.register("int_on_bool", [("calls", [attr_eq("flag", 1)])])
        side.register("nan_const", [("calls", [attr_eq("rate", float("nan"))])])
        side.send({"calls": [{"acct": 1, "mins": None, "rate": None, "flag": True}]})
        assert side.log == ["float_const", "bool_const", "int_on_bool"]
        side.send({"calls": [{"acct": 0, "mins": None, "rate": None, "flag": False}]})
        assert side.log == []

    def test_prefilter_off_examines_every_candidate(self):
        group, calls, _ = build()
        registry = ViewRegistry(prefilter=False)
        registry.attach(group)
        for bucket in range(5):
            registry.register(view_over(calls, f"b{bucket}", attr_eq("acct", bucket)))
        group.append(calls, {"acct": 1, "mins": 5})
        stats = registry.stats
        assert stats["views_examined"] == stats["candidate_views"] == 5
        assert stats["prefilter_hits"] == stats["prefilter_misses"] == 0

    def test_merge_stats_sums_views_examined(self):
        merged = ViewRegistry.merge_stats(
            [{"events": 1, "views_examined": 2}, {"events": 3, "views_examined": 5}]
        )
        assert merged == {"events": 4, "views_examined": 7}


class TestRegistration:
    def test_duplicate_name_rejected(self):
        group, calls, _ = build()
        registry = ViewRegistry()
        registry.register(view_over(calls, "v"))
        with pytest.raises(ViewRegistrationError):
            registry.register(view_over(calls, "v"))

    def test_lookup(self):
        group, calls, _ = build()
        registry = ViewRegistry()
        view = registry.register(view_over(calls, "v"))
        assert registry.view("v") is view
        assert "v" in registry
        assert len(registry) == 1

    def test_lookup_missing(self):
        with pytest.raises(ViewRegistrationError):
            ViewRegistry().view("nope")

    def test_unregister(self):
        group, calls, _ = build()
        registry = ViewRegistry()
        registry.attach(group)
        view = registry.register(view_over(calls, "v"))
        registry.unregister("v")
        group.append(calls, {"acct": 1, "mins": 5})
        assert view.maintenance_count == 0
        assert "v" not in registry

    def test_unregister_leaves_nothing_behind(self):
        """drop → event → re-define → event: the new view starts clean."""
        group, calls, _ = build()
        registry = ViewRegistry()
        registry.attach(group)
        old = registry.register(view_over(calls, "v", attr_eq("acct", 1)))
        with runtime.installed(Observability(trace=True)):
            group.append(calls, {"acct": 1, "mins": 5})
            assert registry.stats["per_view"]["v"]["spans"] == 1
            registry.unregister("v")
            assert "per_view" not in registry.stats
            group.append(calls, {"acct": 1, "mins": 5})
            new = registry.register(view_over(calls, "v", attr_eq("acct", 2)))
            group.append(calls, {"acct": 1, "mins": 5})  # the dropped view's key
            assert "per_view" not in registry.stats
            group.append(calls, {"acct": 2, "mins": 7})
            assert registry.stats["per_view"]["v"]["spans"] == 1
        assert old.maintenance_count == 1
        assert new.maintenance_count == 1
        assert new.value((2,), "sum_mins") == 7
        dispatch = registry._by_chronicle["calls"]
        assert list(dispatch.views.values()) == [registry._views["v"]]
        assert not dispatch.always
        assert list(dispatch.tables[calls.schema.position("acct")]) == [2]

    def test_unregister_missing(self):
        with pytest.raises(ViewRegistrationError):
            ViewRegistry().unregister("nope")

    def test_views_iteration(self):
        group, calls, _ = build()
        registry = ViewRegistry()
        registry.register(view_over(calls, "a"))
        registry.register(view_over(calls, "b"))
        assert sorted(v.name for v in registry.views()) == ["a", "b"]


# -- the dispatch index against a brute-force oracle ------------------------------------

ATTRIBUTES = [
    ("acct", "INT"),
    Attribute("mins", "INT", nullable=True),
    Attribute("rate", "FLOAT", nullable=True),
    ("flag", "BOOL"),
]
NUMERIC = ("acct", "mins", "rate")

equalities = st.builds(
    attr_eq,
    st.sampled_from(NUMERIC + ("flag",)),
    st.sampled_from([0, 1, 1.0, True, None, None, float("nan"), "x"]),
)
ranges = st.builds(
    attr_cmp,
    st.sampled_from(NUMERIC),
    st.sampled_from(["!=", "<", "<=", ">", ">="]),
    st.sampled_from([0, 1, 2, 1.5, True, None]),
)
attr_pairs = st.builds(
    attrs_cmp,
    st.sampled_from(NUMERIC),
    st.sampled_from(["=", "!=", "<", ">="]),
    st.sampled_from(NUMERIC),
)
atoms = st.one_of(equalities, equalities, ranges, attr_pairs)
disjunctions = st.builds(lambda a, b: Or(a, b), atoms, atoms)
#: What a CA selection admits (Definition 4.1 + conjunction as a cascade).
predicates = st.one_of(
    atoms,
    atoms,
    disjunctions,
    st.builds(lambda a, b: And(a, b), st.one_of(atoms, disjunctions), atoms),
)
#: Anything the predicate AST can express, CA-admissible or not.
any_predicates = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(lambda a, b: Or(a, b), inner, inner),
        st.builds(lambda a, b: And(a, b), inner, inner),
    ),
    max_leaves=6,
)
#: One scan of a view: chronicle name + the cascaded selections above it.
scans = st.tuples(
    st.sampled_from(["calls", "fees"]), st.lists(predicates, min_size=0, max_size=3)
)
#: A view recipe: one scan, or the union of two (possibly the same chronicle
#: twice with different filters, possibly one scan unfiltered).
recipes = st.lists(scans, min_size=1, max_size=2)
records = st.fixed_dictionaries(
    {
        "acct": st.sampled_from([0, 1, 2]),
        "mins": st.sampled_from([None, 0, 1, 2]),
        "rate": st.sampled_from([None, 0.0, 1.0, 2.5]),
        "flag": st.booleans(),
    }
)
batches = st.lists(records, min_size=1, max_size=3)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("register"), recipes),
        st.tuples(st.just("register"), recipes),
        st.tuples(st.just("unregister"), st.integers(min_value=0)),
        st.tuples(st.just("append"), st.sampled_from(["calls", "fees"]), batches),
        st.tuples(st.just("append"), st.sampled_from(["calls", "fees"]), batches),
        st.tuples(st.just("simultaneous"), batches, batches),
    ),
    min_size=4,
    max_size=30,
)


class LoggedView(PersistentView):
    """Records its name, in order, every time the registry maintains it."""

    log = None

    def apply_delta(self, delta):
        self.log.append(self.name)
        return super().apply_delta(delta)


class Side:
    """One group + registry; builds views from recipes over its own chronicles."""

    def __init__(self, prefilter):
        self.group = ChronicleGroup("g")
        for name in ("calls", "fees"):
            self.group.create_chronicle(name, ATTRIBUTES, retention=0)
        self.registry = ViewRegistry(prefilter=prefilter)
        self.registry.attach(self.group)
        self.log = []

    def register(self, name, recipe):
        node = None
        for chronicle, selections in recipe:
            branch = scan(self.group[chronicle])
            for predicate in selections:
                branch = branch.select(predicate)
            node = branch if node is None else node.union(branch)
        view = LoggedView(name, GroupBySummary(node, ["acct"], [spec(COUNT), spec(SUM, "acct")]))
        view.log = self.log
        return self.registry.register(view)

    def send(self, batches):
        del self.log[:]
        return self.group.append_simultaneous(batches)


def oracle_affected(view, event):
    """The prefilter as Section 5.2 states it: test every view, every row."""
    filters = scan_prefilters(view.expression)
    for chronicle, rows in event.items():
        if chronicle not in filters:
            continue
        conjunctions = filters[chronicle]
        if not conjunctions:
            return True
        if any(c.evaluate(row) for row in rows for c in conjunctions):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(any_predicates, records)
def test_dispatch_key_and_residual_equal_the_predicate(predicate, record):
    """key lookup ∧ residual ≡ the conjunction, NULLs and 1/1.0/True included."""
    schema = ChronicleGroup("g").create_chronicle("calls", ATTRIBUTES).schema
    row = Row(schema, [0] + [record[name] for name in ("acct", "mins", "rate", "flag")])
    key, residual = compile_prefilter(predicate, schema)
    accepted = residual is None or residual(row.values)
    if key is not None:
        position, constant = key
        accepted = accepted and row.values[position] in {constant: None}
    assert bool(accepted) == bool(predicate.evaluate(row))


@settings(max_examples=500, deadline=None)
@given(operations)
def test_dispatch_index_maintains_exactly_the_oracles_views(ops):
    indexed = Side(prefilter=True)
    maintain_all = Side(prefilter=False)
    names = []  # registration order
    for op in ops:
        if op[0] == "register":
            free = [f"v{i}" for i in range(len(names) + 1) if f"v{i}" not in names]
            indexed.register(free[0], op[1])
            maintain_all.register(free[0], op[1])
            names.append(free[0])
        elif op[0] == "unregister":
            if names:
                name = names.pop(op[1] % len(names))
                indexed.registry.unregister(name)
                maintain_all.registry.unregister(name)
        else:
            if op[0] == "append":
                batches = {op[1]: op[2]}
            else:
                batches = {"calls": op[1], "fees": op[2]}
            event = indexed.send(batches)
            maintain_all.send(batches)
            expected = [
                name for name in names
                if oracle_affected(indexed.registry.view(name), event)
            ]
            assert indexed.log == expected
            candidates = [
                name for name in names
                if set(indexed.registry.view(name).chronicle_names()) & set(event)
            ]
            assert maintain_all.log == candidates
    stats = indexed.registry.stats
    assert stats["prefilter_hits"] + stats["prefilter_misses"] == stats["candidate_views"]
    assert stats["maintained_views"] == stats["prefilter_misses"]
    assert stats["maintained_views"] <= stats["views_examined"] <= stats["candidate_views"]
    assert stats["candidate_views"] == maintain_all.registry.stats["candidate_views"]
    for name in names:
        fast = indexed.registry.view(name)
        slow = maintain_all.registry.view(name)
        assert sorted(r.values for r in fast) == sorted(r.values for r in slow)
