"""E6 — Theorem 4.3: CA's maximality.

The theorem's two halves, demonstrated mechanically:

1. (structural) projecting out the sequencing attribute, or grouping
   without it, is *rejected* inside chronicle algebra — the result would
   not be a chronicle;
2. (complexity) chronicle×chronicle cross products and non-equijoins can
   only be maintained by consulting stored chronicle history: their
   per-append delta cost grows with |C|, while the corresponding CA
   expression (the SN equijoin) stays flat.
"""

import sys

import pytest

from repro.algebra.ast import ChronicleProduct, NonEquiSeqJoin, scan
from repro.algebra.reference import propagate
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.complexity.fitting import fit_series, is_flat
from repro.complexity.harness import format_table
from repro.core.delta import Delta
from repro.core.group import ChronicleGroup

C_SIZES = [100, 400, 1_600, 6_400]


def _two_chronicles(retention=None):
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")],
                                   retention=retention)
    fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")],
                                  retention=retention)
    return group, calls, fees


def _delta_cost(expression_kind, size):
    retention = 0 if expression_kind == "seq_join" else None
    group, calls, fees = _two_chronicles(retention)
    if expression_kind == "product":
        expression = ChronicleProduct(scan(calls), scan(fees))
    elif expression_kind == "non_equi":
        expression = NonEquiSeqJoin(scan(calls), scan(fees), "<")
    else:
        expression = scan(calls).join(scan(fees))
    with GLOBAL_COUNTERS.disabled():
        for i in range(size):
            group.append(fees, {"acct": i % 10, "mins": 1})
    rows = group.append(calls, {"acct": 0, "mins": 1})
    deltas = {"calls": Delta(calls.schema, rows)}
    allow = expression_kind != "seq_join"
    with GLOBAL_COUNTERS.measure() as cost:
        propagate(expression, deltas, allow_chronicle_access=allow)
    return cost["tuple_op"] + cost["chronicle_read"]


def run_report() -> str:
    rows = []
    series = {"product": [], "non_equi": [], "seq_join": []}
    for size in C_SIZES:
        row = [size]
        for kind in ("product", "non_equi", "seq_join"):
            work = _delta_cost(kind, size)
            series[kind].append(work)
            row.append(work)
        rows.append(row)
    return (
        "== E6  Theorem 4.3: extension operators need the chronicle ==\n"
        + format_table(
            ["|C| (fees)", "C1×C2 work", "C1⋈(<)C2 work", "C1⋈(SN)C2 work (CA)"],
            rows,
        )
        + "\nfits: product="
        + fit_series(C_SIZES, series["product"]).model
        + " (expected linear+), non-equijoin="
        + fit_series(C_SIZES, series["non_equi"]).model
        + " (expected linear+), SN-equijoin="
        + fit_series(C_SIZES, series["seq_join"]).model
        + " (expected constant)\n"
        + "structural half: Π without SN and GROUPBY without SN raise "
        + "NotAChronicleError at construction (see tests/test_algebra_ast.py)\n"
    )


def test_e6_product_cost_grows_with_chronicle():
    work = [_delta_cost("product", s) for s in C_SIZES]
    assert work[-1] > work[0] * 20


def test_e6_non_equi_cost_grows_with_chronicle():
    work = [_delta_cost("non_equi", s) for s in C_SIZES]
    assert work[-1] > work[0] * 20


def test_e6_sn_equijoin_stays_flat():
    work = [_delta_cost("seq_join", s) for s in C_SIZES]
    assert is_flat(C_SIZES, work, slack=0.05)


@pytest.mark.parametrize("kind,size", [("product", 1_600), ("seq_join", 1_600)])
def test_e6_delta_step(benchmark, kind, size):
    retention = 0 if kind == "seq_join" else None
    group, calls, fees = _two_chronicles(retention)
    if kind == "product":
        expression = ChronicleProduct(scan(calls), scan(fees))
    else:
        expression = scan(calls).join(scan(fees))
    with GLOBAL_COUNTERS.disabled():
        for i in range(size):
            group.append(fees, {"acct": i % 10, "mins": 1})
    counter = [0]

    def action():
        counter[0] += 1
        rows = group.append(calls, {"acct": counter[0] % 10, "mins": 1})
        propagate(
            expression,
            {"calls": Delta(calls.schema, rows)},
            allow_chronicle_access=(kind == "product"),
        )

    benchmark(action)


if __name__ == "__main__":
    sys.stdout.write(run_report())
