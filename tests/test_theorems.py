"""Counter-based tests of the paper's complexity theorems.

These use the instrumented cost model (operation counts), not wall time,
so they are deterministic: the *shape* claims of Theorems 4.2–4.5 and
Proposition 3.1 become exact assertions.
"""

import pytest

from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import ChronicleProduct, scan
from repro.algebra.reference import propagate
from repro.baselines.recompute import RecomputeMaintainer
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.complexity.fitting import is_flat
from repro.core.delta import Delta
from repro.core.group import ChronicleGroup
from repro.relational.predicate import attr_cmp
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView
from repro.storage.btree import BPlusTree
from repro.views.registry import ViewRegistry


def make_customers(size, ordered=True):
    customers = Relation(
        "customers", Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"])
    )
    for acct in range(size):
        customers.insert({"acct": acct, "state": "NJ" if acct % 2 else "NY"})
    return customers


def append_cost(group, calls, view, acct=0):
    """Cost-counter delta for one append + maintenance."""
    with GLOBAL_COUNTERS.measure() as cost:
        group.append(calls, {"acct": acct, "mins": 1})
    return cost


class TestTheorem42Independence:
    """Δ computation cost independent of |C| and |V|."""

    def test_cost_flat_in_chronicle_size(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle(
            "calls", [("acct", "INT"), ("mins", "INT")], retention=0
        )
        view = PersistentView(
            "v", GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        )
        attach_view(view, group)
        costs = []
        for target in (100, 1000, 10000):
            while calls.appended_count < target - 1:
                group.append(calls, {"acct": 0, "mins": 1})
            costs.append(append_cost(group, calls, view)["tuple_op"])
        assert is_flat([100, 1000, 10000], costs, slack=0.01)

    def test_cost_flat_in_view_size(self):
        """Locate is O(log |V|) in probes, but tuple work is flat."""
        group = ChronicleGroup("g")
        calls = group.create_chronicle(
            "calls", [("acct", "INT"), ("mins", "INT")], retention=0
        )
        view = PersistentView(
            "v", GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        )
        attach_view(view, group)
        tuple_costs = []
        probe_costs = []
        for groups in (100, 1000, 10000):
            while len(view) < groups:
                group.append(calls, {"acct": len(view), "mins": 1})
            cost = append_cost(group, calls, view, acct=0)
            tuple_costs.append(cost["tuple_op"])
            probe_costs.append(cost["index_probe"])
        assert is_flat([100, 1000, 10000], tuple_costs, slack=0.01)
        # Probes grow at most logarithmically: 100x view growth must not
        # even double them.
        assert probe_costs[-1] <= probe_costs[0] * 2

    def test_no_chronicle_reads_during_maintenance(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
        customers = make_customers(64)
        view = PersistentView(
            "v",
            GroupBySummary(
                scan(calls).keyjoin(customers, [("acct", "acct")]),
                ["state"],
                [spec(SUM, "mins")],
            ),
        )
        attach_view(view, group)
        with GLOBAL_COUNTERS.measure() as cost:
            for i in range(100):
                group.append(calls, {"acct": i % 64, "mins": 1})
        assert cost["chronicle_read"] == 0

    def test_ca_product_cost_scales_with_relation(self):
        """The (u·|R|)^j factor: a C×R view's per-append tuple work is
        ~|R|, while a key-join view's is flat in |R|."""

        def work(size, use_product):
            group = ChronicleGroup("g")
            calls = group.create_chronicle(
                "calls", [("acct", "INT"), ("mins", "INT")], retention=0
            )
            customers = make_customers(size)
            node = scan(calls)
            node = (
                node.product(customers)
                if use_product
                else node.keyjoin(customers, [("acct", "acct")])
            )
            view = PersistentView("v", GroupBySummary(node, ["state"], [spec(COUNT)]))
            attach_view(view, group)
            group.append(calls, {"acct": 0, "mins": 1})  # warm up
            with GLOBAL_COUNTERS.measure() as cost:
                group.append(calls, {"acct": 1, "mins": 1})
            return cost["tuple_op"]

        assert work(1000, use_product=True) > work(10, use_product=True) * 50
        keyjoin_small = work(10, use_product=False)
        keyjoin_large = work(1000, use_product=False)
        assert keyjoin_large <= keyjoin_small + 2  # flat tuple work


class TestTheorem44:
    """SCA maintenance: time O(t log |V|), space O(|V|)."""

    def test_time_linear_in_batch_size(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle(
            "calls", [("acct", "INT"), ("mins", "INT")], retention=0
        )
        view = PersistentView(
            "v", GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        )
        attach_view(view, group)

        def cost_of_batch(t):
            # mins=i keeps records distinct (one batch shares a sequence
            # number, so identical records would dedup to one tuple).
            batch = [{"acct": i % 50, "mins": i} for i in range(t)]
            with GLOBAL_COUNTERS.measure() as cost:
                group.append(calls, batch)
            return cost["tuple_op"]

        costs = [cost_of_batch(t) for t in (10, 100, 1000)]
        assert costs[1] == pytest.approx(costs[0] * 10, rel=0.3)
        assert costs[2] == pytest.approx(costs[0] * 100, rel=0.3)

    def test_state_space_is_one_entry_per_view_row(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle(
            "calls", [("acct", "INT"), ("mins", "INT")], retention=0
        )
        view = PersistentView(
            "v", GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        )
        attach_view(view, group)
        for i in range(1000):
            group.append(calls, {"acct": i % 37, "mins": 1})
        assert len(view.state_export()) == len(view) == 37

    @staticmethod
    def locate_probes(groups, state_index=None):
        """Index probes of one t=1 append into a view holding *groups* keys."""
        group = ChronicleGroup("g")
        calls = group.create_chronicle(
            "calls", [("acct", "INT"), ("mins", "INT")], retention=0
        )
        view = PersistentView(
            "v",
            GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")]),
            state_index=state_index,
        )
        attach_view(view, group)
        with GLOBAL_COUNTERS.disabled():
            for start in range(0, groups, 1000):
                batch = range(start, min(start + 1000, groups))
                group.append(calls, [{"acct": acct, "mins": 1} for acct in batch])
        assert len(view) == groups
        with GLOBAL_COUNTERS.measure() as cost:
            group.append(calls, {"acct": groups // 2, "mins": 1})
        return cost["index_probe"]

    def test_default_store_locates_in_flat_probes(self):
        sizes = (100, 1_000, 10_000, 100_000)
        assert [self.locate_probes(size) for size in sizes] == [1, 1, 1, 1]

    def test_btree_store_locates_in_log_probes(self):
        probes = [
            self.locate_probes(size, BPlusTree(unique=True))
            for size in (100, 10_000, 100_000)
        ]
        assert probes == sorted(probes) and probes[0] < probes[-1]


class TestProposition31AndTheorem43:
    """RA-with-aggregation / extension operators need the chronicle."""

    def test_recompute_cost_grows_with_chronicle(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
        summary = GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")])
        maintainer = RecomputeMaintainer(summary)
        costs = []
        for target in (100, 400, 1600):
            while calls.appended_count < target:
                group.append(calls, {"acct": 1, "mins": 1})
            with GLOBAL_COUNTERS.measure() as cost:
                maintainer.recompute()
            costs.append(cost["chronicle_read"])
        assert costs == [100, 400, 1600]  # exactly |C| reads each time

    def test_chronicle_product_delta_cost_grows_with_chronicle(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
        fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")])
        expression = ChronicleProduct(scan(calls), scan(fees))

        def delta_cost_at(size):
            while fees.appended_count < size:
                group.append(fees, {"acct": 1, "mins": 1})
            rows = group.append(calls, {"acct": 1, "mins": 1})
            deltas = {"calls": Delta(calls.schema, rows)}
            with GLOBAL_COUNTERS.measure() as cost:
                propagate(expression, deltas, allow_chronicle_access=True)
            return cost["tuple_op"] + cost["chronicle_read"]

        small = delta_cost_at(50)
        large = delta_cost_at(500)
        assert large > small * 5


class TestTheorem45OperationCounts:
    """IM-Constant vs IM-log(R): probe counts tell the classes apart."""

    def test_ca1_view_makes_no_relation_probes(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle(
            "calls", [("acct", "INT"), ("mins", "INT")], retention=0
        )
        view = PersistentView("v", GroupBySummary(scan(calls), [], [spec(COUNT)]))
        attach_view(view, group)
        group.append(calls, {"acct": 1, "mins": 1})
        with GLOBAL_COUNTERS.measure() as cost:
            group.append(calls, {"acct": 1, "mins": 1})
        assert cost["index_lookup"] <= 3  # just the view state locate/update

    def test_ca_join_probe_growth_is_logarithmic(self):
        def probes_at(size):
            group = ChronicleGroup("g")
            calls = group.create_chronicle(
                "calls", [("acct", "INT"), ("mins", "INT")], retention=0
            )
            customers = Relation(
                "customers", Schema.build(("acct", "INT"), ("state", "STR"))
            )
            customers.create_index(["acct"], ordered=True, unique=True)
            for acct in range(size):
                customers.insert({"acct": acct, "state": "NJ"})
            view = PersistentView(
                "v",
                GroupBySummary(
                    scan(calls).keyjoin(customers, [("acct", "acct")]),
                    ["state"],
                    [spec(COUNT)],
                ),
            )
            attach_view(view, group)
            group.append(calls, {"acct": 0, "mins": 1})
            with GLOBAL_COUNTERS.measure() as cost:
                group.append(calls, {"acct": size // 2, "mins": 1})
            return cost["index_probe"]

        small, large = probes_at(100), probes_at(100_00)
        # |R| grew 100x; log growth means probes grow by a small additive
        # number of levels, not multiplicatively.
        assert large <= small + 6


class TestCompiledStepCounts:
    """The exact counts the compiled steps report, per append event.

    n input rows through a fused σ∘π chain are n ``tuple_op`` (one per
    input row for the whole chain, not one per operator); a fold of m
    rows is m ``tuple_op`` and m·|AL| ``aggregate_step``; locating a
    touched key is one index descent, whatever the batch repeats.
    """

    def make(self, expression_of, grouping, aggregates):
        group = ChronicleGroup("g")
        calls = group.create_chronicle(
            "calls", [("acct", "INT"), ("mins", "INT")], retention=0
        )
        registry = ViewRegistry()
        registry.attach(group)
        view = registry.register(
            PersistentView(
                "v", GroupBySummary(expression_of(calls), grouping, aggregates)
            )
        )
        return group, calls, view

    def test_fused_chain_counts_one_tuple_op_per_input_row(self):
        group, calls, view = self.make(
            lambda calls: scan(calls)
            .select(attr_cmp("mins", ">", 2))
            .project(["sn", "acct", "mins"])
            .select(attr_cmp("mins", "<", 8)),
            ["acct"],
            [spec(SUM, "mins"), spec(COUNT)],
        )
        batch = [{"acct": i % 3, "mins": i} for i in range(10)]  # mins 3..7 pass
        with GLOBAL_COUNTERS.measure() as cost:
            group.append(calls, batch)
        assert cost["tuple_op"] == 10 + 5  # chain: 10 inputs; fold: 5 survivors
        assert cost["aggregate_step"] == 5 * 2
        assert cost["chronicle_read"] == 0
        assert view.value((0,), "count") == 2  # mins 3 and 6

    def test_one_descent_per_touched_key(self):
        group, calls, view = self.make(scan, ["acct"], [spec(SUM, "mins")])
        for acct in range(200):
            group.append(calls, {"acct": acct, "mins": 1})
        with GLOBAL_COUNTERS.measure() as one:
            group.append(calls, {"acct": 7, "mins": 1})
        with GLOBAL_COUNTERS.measure() as many:
            group.append(calls, [{"acct": 7, "mins": m} for m in range(2, 12)])
        # Ten rows of one key locate it once: the same probes as one row.
        assert one["index_lookup"] == many["index_lookup"] == 1
        assert one["index_probe"] == many["index_probe"] > 0
        assert many["tuple_op"] == 10 and many["aggregate_step"] == 10
        assert view.value((7,), "sum_mins") == 1 + 1 + sum(range(2, 12))

    def test_key_join_counts_one_lookup_per_delta_row(self):
        customers = make_customers(64)
        group, calls, view = self.make(
            lambda calls: scan(calls).keyjoin(customers, [("acct", "acct")]),
            ["state"],
            [spec(COUNT)],
        )
        group.append(calls, {"acct": 0, "mins": 1})
        with GLOBAL_COUNTERS.measure() as cost:
            group.append(calls, [{"acct": a, "mins": 1} for a in (1, 2, 3)])
        # Join: one tuple_op per delta row + one per match; fold: one per
        # joined row.  3 + 3 + 3.
        assert cost["tuple_op"] == 9
        assert cost["aggregate_step"] == 3
        assert cost["chronicle_read"] == 0
