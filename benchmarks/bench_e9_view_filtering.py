"""E9 — Section 5.2: identifying affected persistent views.

Many *selective* views (one per account bucket: ``WHERE acct = k``) are
registered over one chronicle.  An append touches exactly one bucket, so
with the registry's prefilter only ~1 view should be maintained per
append; without it, all N views run their (vacuous) delta propagation.

Expected shape: per-append work *and wall-clock* grow ~linearly with N
without the prefilter and stay ~flat with it (the registry's dispatch
index finds the one affected view by dict lookup instead of testing all
N); results are identical either way.
"""

import statistics
import sys
import time

import pytest

from repro.aggregates import SUM, spec
from repro.algebra.ast import scan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.complexity.fitting import fit_series
from repro.complexity.harness import format_table
from repro.core.group import ChronicleGroup
from repro.relational.predicate import attr_eq
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView
from repro.views.registry import ViewRegistry

VIEW_COUNTS = [10, 50, 250, 1000]


def _build(view_count, prefilter):
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")],
                                   retention=0)
    registry = ViewRegistry(prefilter=prefilter)
    registry.attach(group)
    for bucket in range(view_count):
        node = scan(calls).select(attr_eq("acct", bucket))
        registry.register(
            PersistentView(
                f"bucket_{bucket}",
                GroupBySummary(node, ["acct"], [spec(SUM, "mins")]),
            )
        )
    return group, calls, registry


def _append_cost(view_count, prefilter):
    group, calls, registry = _build(view_count, prefilter)
    group.append(calls, {"acct": 0, "mins": 1})  # warm up
    with GLOBAL_COUNTERS.measure() as cost:
        group.append(calls, {"acct": view_count // 2, "mins": 1})
    return sum(cost.values()), registry


def _append_micros(view_count, prefilter, appends=200):
    """Median wall-clock µs of one single-record append (of *appends*)."""
    group, calls, _ = _build(view_count, prefilter)
    group.append(calls, {"acct": 0, "mins": 1})  # warm up
    samples = []
    for index in range(appends):
        # Ten accounts spread over the buckets: after the first ten
        # appends every sample is an update of an existing view row.
        record = {"acct": (index % 10) * (view_count // 10), "mins": 1}
        start = time.perf_counter()
        group.append(calls, record)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def run_report() -> str:
    rows, with_filter, without_filter = [], [], []
    for count in VIEW_COUNTS:
        filtered, registry = _append_cost(count, prefilter=True)
        maintained = registry.stats["maintained_views"]
        unfiltered, _ = _append_cost(count, prefilter=False)
        with_filter.append(filtered)
        without_filter.append(unfiltered)
        rows.append([
            count, unfiltered, filtered,
            round(_append_micros(count, prefilter=False), 1),
            round(_append_micros(count, prefilter=True), 1),
            maintained,
        ])
    return (
        "== E9  affected-view identification: work per append vs #views ==\n"
        + format_table(
            ["#views", "work (maintain all)", "work (prefiltered)",
             "us/append (maintain all)", "us/append (prefiltered)",
             "views maintained (of 2 appends)"],
            rows,
        )
        + f"\nfits: maintain-all={fit_series(VIEW_COUNTS, without_filter).model} "
        f"(expected linear), prefiltered="
        f"{fit_series(VIEW_COUNTS, with_filter).model} (expected ~constant)\n"
    )


def test_e9_prefilter_flat_maintain_all_linear():
    with_filter = [_append_cost(n, True)[0] for n in VIEW_COUNTS]
    without_filter = [_append_cost(n, False)[0] for n in VIEW_COUNTS]
    assert fit_series(VIEW_COUNTS, without_filter).model in ("linear", "nlogn")
    # Prefiltered work is the one affected view's, whatever N is.
    assert len(set(with_filter)) == 1
    assert without_filter[-1] > with_filter[-1] * 3


def test_e9_wall_clock_flat_with_prefilter_linear_without():
    small = _append_micros(VIEW_COUNTS[0], prefilter=True)
    large = _append_micros(VIEW_COUNTS[-1], prefilter=True)
    assert large <= 2 * small
    # 100x the views: maintain-all must pay for them, far beyond noise.
    assert _append_micros(VIEW_COUNTS[-1], prefilter=False) > 10 * _append_micros(
        VIEW_COUNTS[0], prefilter=False
    )


def test_e9_results_identical():
    group_a, calls_a, registry_a = _build(50, prefilter=True)
    group_b, calls_b, registry_b = _build(50, prefilter=False)
    import random

    rng = random.Random(7)
    for _ in range(200):
        record = {"acct": rng.randrange(50), "mins": rng.randrange(10)}
        group_a.append(calls_a, dict(record))
        group_b.append(calls_b, dict(record))
    for bucket in range(50):
        a = registry_a.view(f"bucket_{bucket}").value((bucket,), "sum_mins")
        b = registry_b.view(f"bucket_{bucket}").value((bucket,), "sum_mins")
        assert a == b


@pytest.mark.parametrize("prefilter", [True, False])
def test_e9_append_with_1000_views(benchmark, prefilter):
    group, calls, _ = _build(1000, prefilter)
    counter = [0]

    def action():
        counter[0] += 1
        group.append(calls, {"acct": counter[0] % 1000, "mins": 1})

    benchmark(action)


if __name__ == "__main__":
    sys.stdout.write(run_report())
