"""E5 — Theorem 4.5: SCA1 ∈ IM-Constant, SCA⋈ ∈ IM-log(R), SCA ∈ IM-R^k.

The *same* summary question ("total minutes per customer state") is
expressed in the three languages:

* SCA1   — state carried on the chronicle record itself (no relation);
* SCA⋈  — key join to a customers relation with an ordered unique index;
* SCA    — cross product with the relation plus a selection (the join
           rewritten without the key guarantee).

Sweep |R| and fit the per-append cost: the fitted models must come out
constant / log / polynomial(≥linear) respectively — the empirical form of
the Theorem 4.5 classification.
"""

import sys

import pytest

from repro.aggregates import SUM, spec
from repro.algebra.ast import scan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.complexity.fitting import fit_series, is_flat
from repro.complexity.harness import format_table
from repro.core.group import ChronicleGroup
from repro.relational.predicate import attrs_cmp
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView

from _common import make_customers

R_SIZES = [100, 1_000, 10_000, 100_000]


def _sca1_system(r):
    group = ChronicleGroup("g")
    calls = group.create_chronicle(
        "calls", [("acct", "INT"), ("state", "STR"), ("mins", "INT")], retention=0
    )
    view = PersistentView(
        "v", GroupBySummary(scan(calls), ["state"], [spec(SUM, "mins")])
    )
    attach_view(view, group)
    return group, calls, {"acct": r // 2, "state": "NJ", "mins": 1}


def _sca_join_system(r):
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")], retention=0)
    customers = make_customers(r, ordered=True)
    node = scan(calls).keyjoin(customers, [("acct", "acct")])
    view = PersistentView("v", GroupBySummary(node, ["state"], [spec(SUM, "mins")]))
    attach_view(view, group)
    return group, calls, {"acct": r // 2, "mins": 1}


def _sca_system(r):
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")], retention=0)
    customers = make_customers(r)
    node = scan(calls).product(customers).select(attrs_cmp("acct", "=", "r_acct"))
    view = PersistentView("v", GroupBySummary(node, ["state"], [spec(SUM, "mins")]))
    attach_view(view, group)
    return group, calls, {"acct": r // 2, "mins": 1}


_SYSTEMS = {"SCA1": _sca1_system, "SCA-join": _sca_join_system, "SCA": _sca_system}


def _cost(language, r):
    group, calls, record = _SYSTEMS[language](r)
    group.append(calls, dict(record))  # warm up (first group insert)
    with GLOBAL_COUNTERS.measure() as cost:
        group.append(calls, dict(record, mins=2))
    return cost


def run_report() -> str:
    rows = []
    series = {name: [] for name in _SYSTEMS}
    probe_series = {name: [] for name in _SYSTEMS}
    for r in R_SIZES:
        row = [r]
        for name in ("SCA1", "SCA-join", "SCA"):
            if name == "SCA" and r > 10_000:
                series[name].append(None)
                row.append("-")
                continue
            cost = _cost(name, r)
            work = cost["tuple_op"] + cost["index_probe"]
            series[name].append(work)
            probe_series[name].append(cost["index_probe"])
            row.append(work)
        rows.append(row)
    sca1_fit = fit_series(R_SIZES, series["SCA1"]).model
    join_fit = fit_series(
        R_SIZES, probe_series["SCA-join"], models=("constant", "log", "linear")
    ).model
    sca_points = [(r, w) for r, w in zip(R_SIZES, series["SCA"]) if w is not None]
    sca_fit = fit_series([p[0] for p in sca_points], [p[1] for p in sca_points]).model
    return (
        "== E5  Theorem 4.5: per-append work vs |R| by language ==\n"
        + format_table(["|R|", "SCA1", "SCA-join", "SCA"], rows)
        + f"\nfits: SCA1={sca1_fit} (expected constant → IM-Constant), "
        f"SCA-join probes={join_fit} (expected log → IM-log(R)), "
        f"SCA={sca_fit} (expected linear+ → IM-R^k)\n"
    )


def test_e5_sca1_constant():
    work = [_cost("SCA1", r)["tuple_op"] + _cost("SCA1", r)["index_probe"]
            for r in R_SIZES]
    assert is_flat(R_SIZES, work, slack=0.05)


def test_e5_sca_join_logarithmic():
    probes = [_cost("SCA-join", r)["index_probe"] for r in R_SIZES]
    # 1000x growth in |R| adds only a few tree levels.
    assert probes[-1] <= probes[0] + 12
    assert probes[-1] > probes[0]  # but it does grow (it is not constant)


def test_e5_sca_polynomial():
    sizes = [100, 1_000, 10_000]
    work = [_cost("SCA", r)["tuple_op"] for r in sizes]
    assert fit_series(sizes, work).model in ("linear", "nlogn", "quadratic")
    assert work[-1] > work[0] * 50


@pytest.mark.parametrize("language", ["SCA1", "SCA-join"])
def test_e5_append_large_relation(benchmark, language):
    group, calls, record = _SYSTEMS[language](100_000)
    counter = [0]

    def action():
        counter[0] += 1
        group.append(calls, dict(record, mins=counter[0]))

    benchmark(action)


def test_e5_append_sca_product(benchmark):
    group, calls, record = _SYSTEMS["SCA"](1_000)
    counter = [0]

    def action():
        counter[0] += 1
        group.append(calls, dict(record, mins=counter[0]))

    benchmark(action)


if __name__ == "__main__":
    sys.stdout.write(run_report())
