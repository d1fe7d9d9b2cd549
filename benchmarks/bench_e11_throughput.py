"""E11 — end-to-end transaction throughput by language class.

The paper's bottom line: "the transaction rate that can be supported by a
chronicle system is determined by the complexity of incremental
maintenance of its persistent views."  This experiment streams the
frequent-flyer workload through four complete systems — SCA1, SCA⋈, SCA
(cross product) and the full-recompute baseline — at growing chronicle
sizes and reports appends/second.

Expected shape: SCA1 ≥ SCA⋈ ≫ SCA ≫ recompute, with the incremental
systems' throughput flat in |C| and the baseline's collapsing.
"""

import sys
import time

import pytest

from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.baselines.recompute import RecomputeMaintainer
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.complexity.harness import format_table
from repro.core.group import ChronicleGroup
from repro.relational.predicate import attrs_cmp
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView
from repro.workloads import FrequentFlyerWorkload

from _common import make_customers

PRELOADS = [0, 5_000, 20_000]
MEASURED_APPENDS = 1_000
CUSTOMERS = 400


def _records(count, start=0):
    workload = FrequentFlyerWorkload(seed=37, customers=CUSTOMERS)
    return [
        {"acct": r["acct"] - 9_000_000, "miles": r["miles"]}
        for r in workload.records(count, start=start)
    ]


def _build(system):
    retention = None if system == "recompute" else 0
    group = ChronicleGroup("g")
    mileage = group.create_chronicle(
        "mileage", [("acct", "INT"), ("miles", "INT")], retention=retention
    )
    aggregates = [spec(SUM, "miles"), spec(COUNT)]
    if system == "sca1":
        summary = GroupBySummary(scan(mileage), ["acct"], aggregates)
        attach_view(PersistentView("v", summary), group)
    elif system == "sca_join":
        customers = make_customers(CUSTOMERS, ordered=True)
        node = scan(mileage).keyjoin(customers, [("acct", "acct")])
        summary = GroupBySummary(node, ["state"], aggregates)
        attach_view(PersistentView("v", summary), group)
    elif system == "sca":
        customers = make_customers(CUSTOMERS)
        node = scan(mileage).product(customers).select(
            attrs_cmp("acct", "=", "r_acct")
        )
        summary = GroupBySummary(node, ["state"], aggregates)
        attach_view(PersistentView("v", summary), group)
    else:  # recompute
        summary = GroupBySummary(scan(mileage), ["acct"], aggregates)
        RecomputeMaintainer(summary).attach(group)
    return group, mileage


def _throughput(system, preload):
    group, mileage = _build(system)
    with GLOBAL_COUNTERS.disabled():
        for record in _records(preload):
            group.append(mileage, record)
    measured = _records(MEASURED_APPENDS, start=preload)
    start = time.perf_counter()
    for record in measured:
        group.append(mileage, record)
    elapsed = time.perf_counter() - start
    return MEASURED_APPENDS / elapsed


SYSTEMS = ("sca1", "sca_join", "sca", "recompute")


def run_report() -> str:
    rows = []
    results = {}
    for preload in PRELOADS:
        row = [preload]
        for system in SYSTEMS:
            if system == "recompute" and preload > 5_000:
                row.append("-")
                continue
            rate = _throughput(system, preload)
            results[(system, preload)] = rate
            row.append(f"{rate:,.0f}")
        rows.append(row)
    return (
        "== E11  appends/second by language class vs preloaded |C| ==\n"
        + format_table(
            ["preloaded |C|", "SCA1", "SCA-join", "SCA (C×R)", "recompute"], rows
        )
        + "\nexpected ordering: SCA1 ≥ SCA-join ≫ SCA ≫ recompute; "
        "incremental systems flat in |C|, recompute collapsing\n"
    )


def test_e11_ordering_and_flatness():
    sca1 = _throughput("sca1", 0)
    sca_join = _throughput("sca_join", 0)
    sca = _throughput("sca", 0)
    recompute = _throughput("recompute", 5_000)
    assert sca1 > sca * 2
    assert sca_join > sca * 2
    assert sca > recompute
    # Flat in |C|: within 2x across the preload sweep (wall-clock slack).
    small = _throughput("sca1", 0)
    large = _throughput("sca1", 20_000)
    assert large > small / 2


@pytest.mark.parametrize("system", SYSTEMS)
def test_e11_append(benchmark, system):
    group, mileage = _build(system)
    with GLOBAL_COUNTERS.disabled():
        for record in _records(2_000):
            group.append(mileage, record)
    counter = [0]

    def action():
        counter[0] += 1
        group.append(mileage, {"acct": counter[0] % CUSTOMERS, "miles": 100})

    benchmark(action)


if __name__ == "__main__":
    sys.stdout.write(run_report())
