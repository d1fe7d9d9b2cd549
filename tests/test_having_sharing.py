"""Tests for the HAVING visibility filter and per-event delta sharing."""

import pytest

from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.algebra.plan import PlanCompiler
from repro.baselines.recompute import RecomputeMaintainer
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.core.database import ChronicleDatabase
from repro.core.delta import Delta
from repro.core.group import ChronicleGroup
from repro.errors import CompileError, SchemaError
from repro.relational.predicate import attr_cmp
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView, evaluate_summary
from repro.views.registry import ViewRegistry


@pytest.fixture
def db():
    database = ChronicleDatabase()
    database.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
    return database


class TestHavingLanguage:
    def test_having_filters_visibility(self, db):
        view = db.define_view(
            "DEFINE VIEW heavy AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller HAVING total > 20"
        )
        db.append("calls", {"caller": 1, "minutes": 15})
        db.append("calls", {"caller": 2, "minutes": 30})
        assert [r["caller"] for r in view] == [2]
        assert view.lookup((1,)) is None
        assert len(view) == 1

    def test_group_becomes_visible_as_it_accumulates(self, db):
        view = db.define_view(
            "DEFINE VIEW heavy AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller HAVING total > 20"
        )
        db.append("calls", {"caller": 1, "minutes": 15})
        assert view.lookup((1,)) is None
        db.append("calls", {"caller": 1, "minutes": 10})
        assert view.lookup((1,))["total"] == 25

    def test_having_on_alias_and_on_count(self, db):
        view = db.define_view(
            "DEFINE VIEW busy AS SELECT caller, COUNT(*) AS n "
            "FROM calls GROUP BY caller HAVING n >= 2"
        )
        db.append("calls", {"caller": 1, "minutes": 1})
        db.append("calls", {"caller": 1, "minutes": 2})
        db.append("calls", {"caller": 2, "minutes": 3})
        assert [r["caller"] for r in view] == [1]

    def test_having_matches_oracle(self, db):
        view = db.define_view(
            "DEFINE VIEW heavy AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller HAVING total > 20"
        )
        import random

        rng = random.Random(9)
        for _ in range(100):
            db.append(
                "calls", {"caller": rng.randrange(6), "minutes": rng.randrange(10)}
            )
        assert sorted(r.values for r in view) == sorted(
            r.values for r in evaluate_summary(view.summary)
        )

    def test_having_matches_recompute_baseline(self, db):
        view = db.define_view(
            "DEFINE VIEW heavy AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller HAVING total > 10"
        )
        maintainer = RecomputeMaintainer(view.summary)
        for caller, minutes in ((1, 5), (1, 7), (2, 3)):
            db.append("calls", {"caller": caller, "minutes": minutes})
        assert sorted(r.values for r in maintainer) == sorted(r.values for r in view)

    def test_having_without_group_by_rejected_for_projection(self, db):
        with pytest.raises(CompileError):
            db.define_view(
                "DEFINE VIEW v AS SELECT caller FROM calls HAVING caller > 1"
            )

    def test_having_unknown_output_rejected(self, db):
        with pytest.raises(Exception):
            db.define_view(
                "DEFINE VIEW v AS SELECT caller, SUM(minutes) AS total "
                "FROM calls GROUP BY caller HAVING nope > 1"
            )

    def test_having_on_global_aggregate(self, db):
        view = db.define_view(
            "DEFINE VIEW grand AS SELECT SUM(minutes) AS total FROM calls "
            "HAVING total > 100"
        )
        db.append("calls", {"caller": 1, "minutes": 50})
        assert view.lookup(()) is None
        db.append("calls", {"caller": 1, "minutes": 60})
        assert view.lookup(())["total"] == 110


class TestHavingProgrammatic:
    def test_summary_having_validated(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        with pytest.raises(SchemaError):
            GroupBySummary(
                scan(calls),
                ["caller"],
                [spec(SUM, "minutes")],
                having=attr_cmp("zzz", ">", 1),
            )

    def test_summary_having_applied(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        summary = GroupBySummary(
            scan(calls),
            ["caller"],
            [spec(SUM, "minutes")],
            having=attr_cmp("sum_minutes", ">", 5),
        )
        view = PersistentView("v", summary)
        attach_view(view, group)
        group.append(calls, {"caller": 1, "minutes": 3})
        group.append(calls, {"caller": 2, "minutes": 9})
        assert [r["caller"] for r in view] == [2]


#: The projection the sharing tests put over their filtered scan.
SHAPE = ["sn", "caller", "minutes"]


class TestDeltaSharing:
    def test_shared_subtree_computed_once(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        # A projection reshapes the filtered scan, so the views' plans (not
        # the dispatch index) compute the shared delta.
        shared = scan(calls).select(attr_cmp("minutes", ">", 0)).project(SHAPE)
        registry = ViewRegistry()
        registry.attach(group)
        registry.register(
            PersistentView("a", GroupBySummary(shared, ["caller"], [spec(SUM, "minutes")]))
        )
        registry.register(
            PersistentView("b", GroupBySummary(shared, [], [spec(COUNT)]))
        )
        with GLOBAL_COUNTERS.measure() as cost:
            group.append(calls, {"caller": 1, "minutes": 5})
        # The shared σ and π steps run once, not twice (each node of a
        # shared subtree is a sharing point, so they do not fuse): one
        # tuple_op each + two folds (one per view); the second view's plan
        # is served from the per-event cache.
        assert cost["tuple_op"] == 4
        assert cost["delta_cache_hit"] == 1

    def test_independently_built_subtrees_are_shared_too(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        registry = ViewRegistry()
        registry.attach(group)
        for name, grouping, aggregate in (
            ("a", ["caller"], spec(SUM, "minutes")),
            ("b", [], spec(COUNT)),
        ):
            # Equal structure, distinct objects: interning merges them.
            subtree = scan(calls).select(attr_cmp("minutes", ">", 0)).project(SHAPE)
            registry.register(
                PersistentView(name, GroupBySummary(subtree, grouping, [aggregate]))
            )
        with GLOBAL_COUNTERS.measure() as cost:
            group.append(calls, [{"caller": 1, "minutes": 5}, {"caller": 2, "minutes": 0}])
        # Selection: one tuple_op per input row (2), once; projection: one
        # per selected row (1), once; folds: one per surviving row per view
        # (1 + 1).
        assert cost["tuple_op"] == 5
        assert cost["delta_cache_hit"] == 1
        assert cost["aggregate_step"] == 2

    def test_cache_returns_same_delta_object(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        shared = scan(calls).select(attr_cmp("minutes", ">", 0))
        rows = group.append(calls, {"caller": 1, "minutes": 5})
        deltas = {"calls": Delta(calls.schema, rows)}
        compiler = PlanCompiler()
        roots = [compiler.add_root(shared), compiler.add_root(shared)]
        plans = [compiler.compile(root) for root in roots]
        cache = {}
        first = plans[0](deltas, cache)
        second = plans[1](deltas, cache)
        assert first is second
        # A fresh event (fresh cache) computes it afresh.
        assert plans[1](deltas, {}) is not first

    def test_sharing_preserves_results(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        shared = scan(calls).select(attr_cmp("minutes", ">", 2))
        registry = ViewRegistry()
        registry.attach(group)
        a = registry.register(
            PersistentView("a", GroupBySummary(shared, ["caller"], [spec(SUM, "minutes")]))
        )
        b = registry.register(
            PersistentView("b", GroupBySummary(shared, [], [spec(COUNT)]))
        )
        import random

        rng = random.Random(3)
        for _ in range(100):
            group.append(calls, {"caller": rng.randrange(4), "minutes": rng.randrange(6)})
        assert sorted(r.values for r in a) == sorted(
            r.values for r in evaluate_summary(a.summary)
        )
        assert list(b)[0]["count"] == list(evaluate_summary(b.summary))[0]["count"]
