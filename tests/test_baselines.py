"""Tests for the baselines: full recomputation (Prop 3.1's IM-C^k
representative) and the procedural trigger-style updater."""

import pytest

from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import ChronicleProduct, scan
from repro.baselines.recompute import RecomputeMaintainer
from repro.baselines.trigger import BuggyTriggerUpdater, TriggerStyleUpdater
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.core.group import ChronicleGroup
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary, ProjectSummary
from repro.sca.view import PersistentView


def build(retention=None):
    group = ChronicleGroup("g")
    calls = group.create_chronicle(
        "calls", [("acct", "INT"), ("mins", "INT")], retention=retention
    )
    return group, calls


class TestRecomputeMaintainer:
    def test_matches_incremental_view(self):
        group, calls = build()
        summary = GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins"), spec(COUNT)])
        view = PersistentView("v", summary)
        attach_view(view, group)
        maintainer = RecomputeMaintainer(summary)
        maintainer.attach(group)
        for i in range(40):
            group.append(calls, {"acct": i % 5, "mins": i})
        assert sorted(r.values for r in maintainer) == sorted(r.values for r in view)
        assert maintainer.recomputation_count == 40

    def test_projection_summary(self):
        group, calls = build()
        summary = ProjectSummary(scan(calls), ["acct"])
        maintainer = RecomputeMaintainer(summary)
        maintainer.attach(group)
        for acct in (1, 2, 1):
            group.append(calls, {"acct": acct, "mins": 0})
        assert sorted(r["acct"] for r in maintainer) == [1, 2]

    def test_handles_outside_ca_expressions(self):
        group, calls = build()
        fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")])
        summary = GroupBySummary(
            ChronicleProduct(scan(calls), scan(fees)), ["acct"], [spec(COUNT)]
        )
        maintainer = RecomputeMaintainer(summary)
        maintainer.attach(group)
        group.append(calls, {"acct": 1, "mins": 5})
        group.append(fees, {"acct": 1, "mins": 5})
        assert list(maintainer)[0]["count"] == 1

    def test_cost_grows_with_chronicle_size(self):
        """The Prop 3.1 point, counter-based: per-append recomputation
        work grows with |C| while the delta engine's stays flat."""
        group, calls = build()
        summary = GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        maintainer = RecomputeMaintainer(summary)

        def cost_of_append_at_size(size):
            while calls.appended_count < size:
                group.append(calls, {"acct": 1, "mins": 1})
            with GLOBAL_COUNTERS.measure() as cost:
                group.append(calls, {"acct": 1, "mins": 1})
                maintainer.recompute()
            return cost["tuple_op"] + cost["chronicle_read"]

        small = cost_of_append_at_size(50)
        large = cost_of_append_at_size(500)
        assert large > small * 5

    def test_result_property_recomputes_lazily(self):
        group, calls = build()
        summary = GroupBySummary(scan(calls), ["acct"], [spec(COUNT)])
        maintainer = RecomputeMaintainer(summary)
        group.append(calls, {"acct": 1, "mins": 5})
        assert len(maintainer.result) == 1
        assert maintainer.recomputation_count == 1


class TestTriggerStyleUpdater:
    def procedure(self, fields, row):
        fields["balance"] += row["mins"]
        fields["transactions"] += 1

    def make(self, group, updater_cls=TriggerStyleUpdater, **kwargs):
        updater = updater_cls(
            "acct",
            lambda: {"balance": 0, "transactions": 0},
            self.procedure,
            **kwargs,
        )
        updater.attach(group)
        return updater

    def test_summary_fields_track_stream(self):
        group, calls = build(retention=0)
        updater = self.make(group)
        group.append(calls, {"acct": 1, "mins": 10})
        group.append(calls, {"acct": 1, "mins": 5})
        group.append(calls, {"acct": 2, "mins": 7})
        assert updater.fields(1) == {"balance": 15, "transactions": 2}
        assert updater.value(2, "balance") == 7
        assert updater.fields(99) is None
        assert len(updater) == 2
        assert updater.processed_count == 3

    def test_agrees_with_declarative_view(self):
        group, calls = build()
        view = PersistentView(
            "v", GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins"), spec(COUNT)])
        )
        attach_view(view, group)
        updater = self.make(group)
        for i in range(60):
            group.append(calls, {"acct": i % 4, "mins": i})
        for acct in range(4):
            assert updater.value(acct, "balance") == view.value((acct,), "sum_mins")

    def test_buggy_updater_diverges(self):
        """The Chemical Bank scenario: the hand-written updater silently
        double-applies updates; the declarative view stays correct."""
        group, calls = build()
        view = PersistentView(
            "v", GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        )
        attach_view(view, group)
        buggy = self.make(group, BuggyTriggerUpdater, double_apply_every=10)
        for i in range(100):
            group.append(calls, {"acct": 1, "mins": 10})
        correct = view.value((1,), "sum_mins")
        assert correct == 1000
        assert buggy.value(1, "balance") > correct  # bounced checks ahead

    def test_buggy_updater_validation(self):
        with pytest.raises(ValueError):
            BuggyTriggerUpdater("acct", dict, lambda f, r: None, double_apply_every=0)
