"""E8 — Section 5.1: the cyclic-buffer optimization for moving windows.

The paper's 30-day moving stock-volume example, maintained two ways while
sweeping the window width W (overlap degree, stride fixed at 1 day):

* **periodic views** — one interval view per day-window; each record
  folds into ~W overlapping views;
* **cyclic buffer** — one bucket fold per record plus an O(1) roll per
  day (SUM is invertible).

Expected shape: per-record fold work grows ~linearly with W for the
periodic-view family and stays flat for the cyclic buffer; the advantage
therefore widens ~linearly in W.
"""

import sys

import pytest

from repro.aggregates import SUM
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.complexity.fitting import fit_series, is_flat
from repro.complexity.harness import format_table
from repro.core.group import ChronicleGroup
from repro.sca.summarize import GroupBySummary
from repro.aggregates import spec
from repro.algebra.ast import scan
from repro.views.calendar import sliding
from repro.views.moving import KeyedMovingWindow
from repro.views.periodic import PeriodicViewSet
from repro.views.registry import ViewRegistry
from repro.workloads import StockWorkload

WIDTHS = [5, 10, 20, 40]
DAYS = 60
TRADES_PER_DAY = 40


def _trade_stream():
    workload = StockWorkload(seed=23, symbols=20, trades_per_day=TRADES_PER_DAY)
    return [r for r in workload.records(DAYS * TRADES_PER_DAY) if r["side"] == "sell"]


def _periodic_cost(width, trades):
    group = ChronicleGroup("g")
    chronicle = group.create_chronicle(
        "trades", [("symbol", "INT"), ("shares", "INT"), ("day", "INT")], retention=0
    )
    summary = GroupBySummary(scan(chronicle), ["symbol"], [spec(SUM, "shares")])
    views = PeriodicViewSet(
        "w",
        summary,
        sliding(window=width, step=1),
        chronon_of=lambda row: float(row["day"]),
        expire_after=1.0,
    )
    registry = ViewRegistry()
    registry.register_periodic(views, group)
    registry.attach(group)
    with GLOBAL_COUNTERS.measure() as cost:
        for record in trades:
            group.append(
                chronicle,
                {"symbol": record["symbol"], "shares": record["shares"],
                 "day": record["day"]},
            )
    per_record = sum(cost.values()) / len(trades)
    return per_record, views


def _buffer_cost(width, trades):
    buffer = KeyedMovingWindow(SUM, width=width)
    with GLOBAL_COUNTERS.measure() as cost:
        for record in trades:
            buffer.observe(record["symbol"], record["shares"], float(record["day"]))
    per_record = sum(cost.values()) / len(trades)
    return per_record, buffer


def run_report() -> str:
    trades = _trade_stream()
    rows, naive_series, buffer_series = [], [], []
    for width in WIDTHS:
        naive, views = _periodic_cost(width, trades)
        optimized, buffer = _buffer_cost(width, trades)
        naive_series.append(naive)
        buffer_series.append(optimized)
        rows.append(
            [width, f"{naive:.1f}", f"{optimized:.2f}", f"{naive / optimized:.1f}x"]
        )
    return (
        "== E8  moving windows: periodic views vs cyclic buffer ==\n"
        + format_table(
            ["window W (days)", "periodic work/record", "buffer work/record",
             "buffer advantage"],
            rows,
        )
        + f"\nfits in W: periodic={fit_series(WIDTHS, naive_series).model} "
        f"(expected linear), buffer={fit_series(WIDTHS, buffer_series).model} "
        f"(expected constant)\n"
    )


def test_e8_results_agree():
    trades = _trade_stream()
    _, views = _periodic_cost(30, trades)
    _, buffer = _buffer_cost(30, trades)
    last_day = trades[-1]["day"]
    current = views[last_day - 30 + 1]
    assert len(current) > 0
    for row in current:
        assert buffer.current(row["symbol"]) == row["sum_shares"]


def test_e8_buffer_flat_periodic_linear_in_width():
    trades = _trade_stream()
    naive = [_periodic_cost(w, trades)[0] for w in WIDTHS]
    optimized = [_buffer_cost(w, trades)[0] for w in WIDTHS]
    assert fit_series(WIDTHS, naive).model in ("linear", "nlogn")
    assert is_flat(WIDTHS, optimized, slack=0.25)
    assert naive[-1] / optimized[-1] > naive[0] / optimized[0]


@pytest.mark.parametrize("width", [10, 40])
def test_e8_periodic_stream(benchmark, width):
    trades = _trade_stream()[:400]
    benchmark.pedantic(
        lambda: _periodic_cost(width, trades), rounds=3, iterations=1
    )


@pytest.mark.parametrize("width", [10, 40])
def test_e8_buffer_stream(benchmark, width):
    trades = _trade_stream()[:400]
    benchmark.pedantic(
        lambda: _buffer_cost(width, trades), rounds=3, iterations=1
    )


if __name__ == "__main__":
    sys.stdout.write(run_report())
