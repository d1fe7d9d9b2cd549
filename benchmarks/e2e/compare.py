"""Judging runs against the bounds: ``--repeat-check`` and ``--compare``.

Both work on run payloads as :func:`benchmarks.e2e.cli.child_run` returns
them.  A relative difference is always given with its base: for
``--compare`` the base is side A's median, for ``--repeat-check`` the
smaller of the two values compared.
"""

from __future__ import annotations

import json
from statistics import median, quantiles
from typing import Any, Dict, List, Sequence, Tuple

from .manifest import Manifest

Run = Dict[str, Any]


def _values(runs: Sequence[Run], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def medians(runs: Sequence[Run]) -> Dict[str, float]:
    """Each metric's median over *runs*."""
    return {metric: median(_values(runs, metric)) for metric in runs[0]["metrics"]}


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median — the
    driver's measure (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return 0.0
    low, _, high = quantiles(values, n=4)
    middle = median(values)
    return (high - low) / abs(middle) if middle else 0.0


def repeat_report(
    manifest: Manifest, sets: Sequence[Dict[str, Run]]
) -> Tuple[str, bool]:
    """Same-code repeatability of every workload x end-to-end metric.

    A pair whose largest pairwise relative difference exceeds half the
    metric's bound is marked ``over`` and fails the check.  The issue's
    rule for such a metric is to demote it to the per-layer table, never
    to widen its bound; README.md says where that was done.
    """
    lines = [
        f"repeat-check: {len(sets)} back-to-back sets of the same code",
        f"{'workload':<14}{'metric':<22}{'values':<58}{'q1':>11}{'q3':>11}"
        f"{'max pair':>10}{'bound':>7}  verdict",
    ]
    ok = True
    for workload in manifest.workloads:
        runs = [current[workload] for current in sets]
        for metric, spec in manifest.end_to_end.items():
            values = _values(runs, metric)
            low, _, high = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            pair = (max(values) - min(values)) / min(values) if min(values) else 0.0
            if pair <= spec["bound"] / 2:
                verdict = "ok"
            else:
                verdict = "over"
                ok = False
            shown = " ".join(f"{value:.5g}" for value in values)
            lines.append(
                f"{workload:<14}{metric:<22}{shown:<58}{low:>11.5g}{high:>11.5g}"
                f"{pair:>10.4f}{spec['bound']:>7.2f}  {verdict}"
            )
        failed = sum(run["failed"] for run in runs)
        if failed:
            ok = False
            lines.append(f"{workload:<14}ops_failed {failed}")
    lines.append(
        "every metric within half its bound" if ok
        else "FAILED: a pair marked 'over' did not repeat within half its bound"
    )
    return "\n".join(lines), ok


def estimator_study(manifest: Manifest, sets: Sequence[Dict[str, Run]]) -> str:
    """How far six estimators of segment throughput moved between sets.

    The evidence for the estimator: the same per-segment values reduced
    by mean, median, fast quartile (p75, the issue's), fast twentieth
    (p95), fast hundredth (p99, the one reported) and best, each with its
    largest pairwise relative difference over the sets.
    """
    estimators = {
        "mean": lambda rates: sum(rates) / len(rates),
        "median": median,
        "fast quartile": lambda rates: quantiles(rates, n=4)[2],
        "fast 1/20": lambda rates: quantiles(rates, n=20)[-1],
        "fast 1/100": lambda rates: quantiles(rates, n=100, method="inclusive")[-1],
        "best": max,
    }
    lines = [
        "estimator study: largest pairwise relative difference of segment "
        "throughput (records/s) over the sets, by estimator",
        f"{'workload':<14}" + "".join(f"{name:>15}" for name in estimators),
    ]
    for workload in manifest.workloads:
        cells = []
        for estimate in estimators.values():
            values = [
                estimate(current[workload]["detail"]["untraced"]["segment_records_per_s"])
                for current in sets
            ]
            cells.append((max(values) - min(values)) / min(values))
        lines.append(f"{workload:<14}" + "".join(f"{cell:>15.4f}" for cell in cells))
    return "\n".join(lines)


def _load(path: str) -> Dict[str, List[Run]]:
    with open(path) as handle:
        document = json.load(handle)
    return {name: entry["runs"] for name, entry in document["workloads"].items()}


def _reference_us(runs: Sequence[Run]) -> float:
    """What the reference took per record on a side's runs (their median):
    the same pure-Python work on the same inputs whatever the program does,
    so a difference between the sides is the box's, not the program's."""
    return median(run["detail"]["untraced"]["reference_us_per_record"] for run in runs)


def compare_report(manifest: Manifest, path_a: str, path_b: str) -> Tuple[str, bool]:
    """B against A, one row per workload x end-to-end metric.

    ``unresolved`` when either side's own runs spread wider than the
    bound, or (for a timing) when the box itself ran the reference more
    than the bound faster or slower on one side than on the other;
    otherwise ``worse`` / ``better`` when B's median differs from A's by
    more than the bound, else ``same``.
    """
    side_a, side_b = _load(path_a), _load(path_b)
    lines = [
        f"A = {path_a}\nB = {path_b}\nrelative difference = (B - A) / A",
        f"{'workload':<14}{'metric':<22}{'A':>13}{'B':>13}{'(B-A)/A':>10}"
        f"{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict",
    ]
    ok = True
    for workload in manifest.workloads:
        box_a, box_b = _reference_us(side_a[workload]), _reference_us(side_b[workload])
        box = (box_b - box_a) / box_a
        lines.append(
            f"{workload:<14}{'(reference us/record)':<22}{box_a:>13.5g}{box_b:>13.5g}{box:>+10.4f}"
        )
        for metric, spec in manifest.end_to_end.items():
            values_a = _values(side_a[workload], metric)
            values_b = _values(side_b[workload], metric)
            a, b = median(values_a), median(values_b)
            spread_a, spread_b = spread(values_a), spread(values_b)
            worse_by = manifest.worse_by(metric, a, b)
            # A slower box does not change how much memory the program uses.
            drift = abs(box) if spec["unit"] != "MB" else 0.0
            if max(spread_a, spread_b, drift) > spec["bound"]:
                verdict = "unresolved"
            elif worse_by > spec["bound"]:
                verdict = "worse"
                ok = False
            elif worse_by < -spec["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            lines.append(
                f"{workload:<14}{metric:<22}{a:>13.5g}{b:>13.5g}{(b - a) / a if a else 0.0:>+10.4f}"
                f"{spread_a:>10.4f}{spread_b:>10.4f}{spec['bound']:>7.2f}  {verdict}"
            )
    return "\n".join(lines), ok
