"""E4 — Theorem 4.4: SCA view maintenance in Time O(t·log|V|), Space O(|V|).

Two sweeps over a grouped SUM/COUNT view:

1. sweep t (tuples per append batch) at fixed |V|: maintenance work grows
   linearly with t;
2. sweep |V| (number of groups) at t=1: tuple work stays flat; the locate
   cost grows logarithmically on a view built over a B+-tree (the
   theorem's O(log |V|)) and stays flat on the view's default hash-map
   store (expected O(1)); and the maintenance state is exactly one
   accumulator entry per view row (space O(|V|)).
"""

import sys

import pytest

from repro.algebra.ast import scan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.complexity.fitting import fit_series, is_flat
from repro.complexity.harness import format_table
from repro.storage.btree import BPlusTree

from _common import attach, make_group, sum_view

T_VALUES = [1, 10, 100, 1000]
V_SIZES = [100, 1_000, 10_000, 100_000]


def _batch_cost(t):
    group, calls = make_group(retention=0)
    view = attach(sum_view(scan(calls), ["acct"]), group)
    with GLOBAL_COUNTERS.disabled():
        for acct in range(50):
            group.append(calls, {"acct": acct, "mins": 0})
    batch = [{"acct": i % 50, "mins": i} for i in range(t)]
    with GLOBAL_COUNTERS.measure() as cost:
        group.append(calls, batch)
    return cost


def _view_size_cost(groups, tree=False):
    """One t=1 append's cost over *groups* keys, the view's state in a
    B+-tree when *tree*, else in its default store."""
    group, calls = make_group(retention=0)
    store = BPlusTree(unique=True) if tree else None
    view = attach(sum_view(scan(calls), ["acct"], state_index=store), group)
    with GLOBAL_COUNTERS.disabled():
        for acct in range(groups):
            group.append(calls, {"acct": acct, "mins": 1})
    with GLOBAL_COUNTERS.measure() as cost:
        group.append(calls, {"acct": groups // 2, "mins": 1})
    return cost, len(view.state_export()), len(view)


def run_report() -> str:
    t_rows, t_work = [], []
    for t in T_VALUES:
        cost = _batch_cost(t)
        work = cost["tuple_op"] + cost["aggregate_step"]
        t_work.append(work)
        t_rows.append([t, work, cost["index_probe"]])
    v_rows, v_probes = [], []
    for size in V_SIZES:
        cost, state_entries, view_rows = _view_size_cost(size, tree=True)
        flat = _view_size_cost(size)[0]
        v_probes.append(cost["index_probe"])
        v_rows.append(
            [size, cost["tuple_op"], cost["index_probe"], flat["index_probe"],
             state_entries, view_rows]
        )
    return (
        "== E4  Theorem 4.4: SCA maintenance O(t log|V|), space O(|V|) ==\n"
        + format_table(["t (batch size)", "fold work", "probes"], t_rows)
        + f"\nfit in t: {fit_series(T_VALUES, t_work).model} (expected linear)\n\n"
        + format_table(
            ["|V| groups", "tuple_ops", "B+-tree probes", "default probes",
             "state entries", "view rows"],
            v_rows,
        )
        + f"\nfit of B+-tree probes in |V|: {fit_series(V_SIZES, v_probes).model} "
        "(expected log); default-store probes flat (expected O(1)); "
        "state entries == view rows (space O(|V|))\n"
    )


def test_e4_linear_in_batch_size():
    work = [
        _batch_cost(t)["tuple_op"] + _batch_cost(t)["aggregate_step"]
        for t in T_VALUES
    ]
    assert fit_series(T_VALUES, work).model == "linear"


def test_e4_log_locate_flat_work_in_view_size():
    probes, work = [], []
    for size in V_SIZES:
        cost, state_entries, view_rows = _view_size_cost(size, tree=True)
        probes.append(cost["index_probe"])
        work.append(cost["tuple_op"])
        assert state_entries == view_rows  # space O(|V|), exactly
    assert is_flat(V_SIZES, work, slack=0.05)
    assert probes[-1] <= probes[0] + 12  # additive levels only


def test_e4_default_store_flat_probes_in_view_size():
    probes = []
    for size in V_SIZES:
        cost, state_entries, view_rows = _view_size_cost(size)
        probes.append(cost["index_probe"])
        assert state_entries == view_rows
    assert len(set(probes)) == 1, probes  # the same locate at every |V|


@pytest.mark.parametrize("t", [1, 100])
def test_e4_batch_append(benchmark, t):
    group, calls = make_group(retention=0)
    attach(sum_view(scan(calls), ["acct"]), group)
    counter = [0]

    def action():
        counter[0] += 1
        batch = [
            {"acct": i % 50, "mins": counter[0] * 1000 + i} for i in range(t)
        ]
        group.append(calls, batch)

    benchmark(action)


if __name__ == "__main__":
    sys.stdout.write(run_report())
