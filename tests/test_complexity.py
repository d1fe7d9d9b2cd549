"""Tests for the measurement kit: counters, fitting, report tables."""

import math

import pytest

from repro.complexity.counters import GLOBAL_COUNTERS, CostCounters
from repro.complexity.fitting import fit_series, is_flat
from repro.complexity.harness import format_table


class TestCounters:
    def test_count_and_snapshot(self):
        counters = CostCounters()
        counters.count("tuple_op")
        counters.count("index_probe", 5)
        snap = counters.snapshot()
        assert snap["tuple_op"] == 1
        assert snap["index_probe"] == 5

    def test_diff(self):
        counters = CostCounters()
        counters.count("tuple_op", 3)
        before = counters.snapshot()
        counters.count("tuple_op", 4)
        assert counters.diff(before)["tuple_op"] == 4

    def test_measure_context(self):
        counters = CostCounters()
        with counters.measure() as cost:
            counters.count("view_read", 2)
        assert cost["view_read"] == 2

    def test_disabled_context(self):
        counters = CostCounters()
        with counters.disabled():
            counters.count("tuple_op")
        assert counters.counts["tuple_op"] == 0
        counters.count("tuple_op")
        assert counters.counts["tuple_op"] == 1

    def test_reset_and_total(self):
        counters = CostCounters()
        counters.count("tuple_op", 2)
        counters.count("index_probe")
        assert counters.total == 3
        counters.reset()
        assert counters.total == 0

    def test_global_counters_exist(self):
        snapshot = GLOBAL_COUNTERS.snapshot()
        assert set(snapshot) == set(CostCounters.EVENTS)


class TestFitting:
    def test_constant_series(self):
        assert fit_series([10, 100, 1000, 10000], [7, 7.2, 6.9, 7.1]).model == "constant"

    def test_linear_series(self):
        assert fit_series([10, 100, 1000, 10000], [21, 201, 2001, 20001]).model == "linear"

    def test_log_series(self):
        xs = [2 ** k for k in range(3, 12)]
        ys = [3 * math.log2(x) + 1 for x in xs]
        assert fit_series(xs, ys).model == "log"

    def test_quadratic_series(self):
        xs = [10, 20, 40, 80, 160]
        ys = [x * x for x in xs]
        assert fit_series(xs, ys).model == "quadratic"

    def test_nlogn_series(self):
        xs = [2 ** k for k in range(4, 14)]
        ys = [x * math.log2(x) for x in xs]
        assert fit_series(xs, ys).model == "nlogn"

    def test_prefers_simpler_model_within_tolerance(self):
        # Slightly noisy constant data must not be called "log".
        xs = [10, 100, 1000, 10000, 100000]
        ys = [5.0, 5.3, 4.8, 5.1, 5.05]
        assert fit_series(xs, ys).model == "constant"

    def test_model_subset(self):
        xs = [1, 2, 3, 4]
        ys = [1, 4, 9, 16]
        result = fit_series(xs, ys, models=("constant", "linear"))
        assert result.model == "linear"

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_series([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit_series([1, 2, 3], [1, 2])

    def test_r_squared_reported(self):
        result = fit_series([1, 2, 3, 4], [2, 4, 6, 8])
        assert result.best.r_squared == pytest.approx(1.0)

    def test_is_flat(self):
        assert is_flat([1, 10, 100], [5, 5.5, 4.8])
        assert not is_flat([1, 10, 100], [5, 50, 500])
        assert is_flat([1, 2], [0, 0])


class TestHarness:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], [10, 0.000001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]
