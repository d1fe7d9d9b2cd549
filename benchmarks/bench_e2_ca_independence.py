"""E2 — Theorem 4.2: CA delta computation is independent of |C| and |V|.

A composite CA-join view (σ, ∪, ⋈key, GROUPBY) is maintained while the
chronicle (swept up to 100k appends, stored nowhere) and the view (swept
up to 50k groups) grow.  Expected shape: per-append tuple work is flat in
both sweeps; the locate probes may grow by at most O(log |V|), additively,
never multiplicatively — on the view's default hash-map store they stay
flat.
"""

import sys

import pytest

from repro.algebra.ast import scan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.complexity.fitting import fit_series, is_flat
from repro.complexity.harness import format_table
from repro.relational.predicate import attr_cmp

from _common import attach, make_customers, make_group, one_append, preload, sum_view

C_SIZES = [1_000, 10_000, 100_000]
V_SIZES = [500, 5_000, 50_000]


def _composite_system():
    group = make_group(retention=0)[0]
    calls = group["calls"]
    fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")], retention=0)
    customers = make_customers(256)
    node = (
        scan(calls)
        .select(attr_cmp("mins", ">=", 0))
        .union(scan(fees))
        .keyjoin(customers, [("acct", "acct")])
    )
    view = attach(sum_view(node, ["acct"]), group)
    return group, calls, view


def _cost_at_chronicle_size(size):
    group, calls, view = _composite_system()
    preload(group, calls, size, accts=256)
    with GLOBAL_COUNTERS.measure() as cost:
        group.append(calls, {"acct": 7, "mins": 1})
    return cost


def _cost_at_view_size(groups):
    group, calls = make_group(retention=0)
    view = attach(sum_view(scan(calls), ["acct"]), group)
    with GLOBAL_COUNTERS.disabled():
        for acct in range(groups):
            group.append(calls, {"acct": acct, "mins": 1})
    with GLOBAL_COUNTERS.measure() as cost:
        group.append(calls, {"acct": 0, "mins": 1})
    return cost


def run_report() -> str:
    c_rows, c_work = [], []
    for size in C_SIZES:
        cost = _cost_at_chronicle_size(size)
        c_work.append(cost["tuple_op"])
        c_rows.append([size, cost["tuple_op"], cost["index_probe"],
                       cost["chronicle_read"]])
    v_rows, v_work, v_probes = [], [], []
    for size in V_SIZES:
        cost = _cost_at_view_size(size)
        v_work.append(cost["tuple_op"])
        v_probes.append(cost["index_probe"])
        v_rows.append([size, cost["tuple_op"], cost["index_probe"],
                       cost["chronicle_read"]])
    return (
        "== E2  Theorem 4.2: per-append work, composite CA-join view ==\n"
        + format_table(["|C| appended", "tuple_ops", "probes", "chr_reads"], c_rows)
        + f"\nfit in |C|: {fit_series(C_SIZES, c_work).model} (expected constant)\n\n"
        + format_table(["|V| groups", "tuple_ops", "probes", "chr_reads"], v_rows)
        + f"\nfit in |V|: tuple work {fit_series(V_SIZES, v_work).model} "
        f"(expected constant), probes {fit_series(V_SIZES, v_probes).model} "
        f"(expected ≤ log)\n"
    )


def test_e2_flat_in_chronicle_size():
    work = [_cost_at_chronicle_size(s)["tuple_op"] for s in C_SIZES]
    assert is_flat(C_SIZES, work, slack=0.01)
    assert _cost_at_chronicle_size(C_SIZES[0])["chronicle_read"] == 0


def test_e2_flat_tuple_work_in_view_size():
    work = [_cost_at_view_size(s)["tuple_op"] for s in V_SIZES]
    probes = [_cost_at_view_size(s)["index_probe"] for s in V_SIZES]
    assert is_flat(V_SIZES, work, slack=0.01)
    assert probes[-1] <= probes[0] + 10  # log growth is additive levels


@pytest.mark.parametrize("size", [1_000, 100_000])
def test_e2_append_at_chronicle_size(benchmark, size):
    group, calls, view = _composite_system()
    preload(group, calls, size, accts=256)
    benchmark(one_append(group, calls, acct=7))


@pytest.mark.parametrize("groups", [500, 50_000])
def test_e2_append_at_view_size(benchmark, groups):
    group, calls = make_group(retention=0)
    attach(sum_view(scan(calls), ["acct"]), group)
    with GLOBAL_COUNTERS.disabled():
        for acct in range(groups):
            group.append(calls, {"acct": acct, "mins": 1})
    benchmark(one_append(group, calls, acct=0))


if __name__ == "__main__":
    sys.stdout.write(run_report())
