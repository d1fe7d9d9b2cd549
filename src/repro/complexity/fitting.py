"""Fitting measured cost curves to complexity models.

The reproduction's claims are *shapes*: "maintenance cost is constant in
|C|", "grows like log |R|", "polynomial in |C|".  This module fits a
measured series ``(x, y)`` against the candidate models

    constant   y = a
    log        y = a + b·log2(x)
    linear     y = a + b·x
    nlogn      y = a + b·x·log2(x)
    quadratic  y = a + b·x²
    cubic      y = a + b·x³

by least squares and reports the *simplest adequate* model: the least
complex model whose RMSE is within ``tolerance`` of the best-fitting
model's.  This bias matters — constant data also fits a line with slope
≈ 0, and we want to call it constant.

numpy is used only here, and imported by the functions that fit: the
engine never fits, so ``import repro`` needs no numpy (the ``bench``
extra installs it).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

#: Model name → basis function of x (the non-constant regressor).
_BASES: Dict[str, Optional[Callable[[float], float]]] = {
    "constant": None,
    "log": lambda x: math.log2(max(x, 1.0)),
    "linear": lambda x: x,
    "nlogn": lambda x: x * math.log2(max(x, 2.0)),
    "quadratic": lambda x: x * x,
    "cubic": lambda x: x * x * x,
}

#: Simplicity order used for tie-breaking.
MODEL_ORDER: Tuple[str, ...] = ("constant", "log", "linear", "nlogn", "quadratic", "cubic")


class Fit(NamedTuple):
    """One model's least-squares fit."""

    model: str
    intercept: float
    slope: float  # 0 for the constant model
    rmse: float
    r_squared: float


class FitResult(NamedTuple):
    """The full fitting outcome."""

    best: Fit
    fits: Dict[str, Fit]

    @property
    def model(self) -> str:
        return self.best.model


def _numpy() -> Any:
    """numpy, imported on the first fit (the ``bench`` extra)."""
    try:
        import numpy
    except ImportError as exc:
        raise ImportError(
            "fitting cost curves needs numpy: pip install 'repro[bench]'"
        ) from exc
    return numpy


def _fit_model(model: str, xs: Sequence[float], ys: Sequence[float]) -> Fit:
    np = _numpy()
    ys = np.asarray(ys, dtype=float)
    basis = _BASES[model]
    if basis is None:
        intercept = float(np.mean(ys))
        predictions = np.full_like(ys, intercept)
        slope = 0.0
    else:
        regressor = np.array([basis(float(x)) for x in xs])
        design = np.column_stack([np.ones_like(regressor), regressor])
        coefficients, *_ = np.linalg.lstsq(design, ys, rcond=None)
        intercept, slope = float(coefficients[0]), float(coefficients[1])
        predictions = design @ coefficients
    residuals = ys - predictions
    rmse = float(np.sqrt(np.mean(residuals ** 2)))
    total = float(np.sum((ys - np.mean(ys)) ** 2))
    r_squared = 1.0 - float(np.sum(residuals ** 2)) / total if total > 0 else 1.0
    return Fit(model, intercept, slope, rmse, r_squared)


def fit_series(
    xs: Sequence[float],
    ys: Sequence[float],
    models: Sequence[str] = MODEL_ORDER,
    tolerance: float = 0.15,
) -> FitResult:
    """Fit ``(xs, ys)`` and pick the simplest adequate model.

    Parameters
    ----------
    xs, ys:
        The measured series (at least 3 points).
    models:
        Candidate model names (subset of :data:`MODEL_ORDER`).
    tolerance:
        A simpler model is preferred when its RMSE is within
        ``(1 + tolerance)`` of the overall best RMSE (plus a small
        absolute epsilon so exactly-flat data fits "constant").
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 3:
        raise ValueError("fitting needs at least 3 points")
    np = _numpy()
    ys_array = np.asarray(ys, dtype=float)
    fits = {model: _fit_model(model, xs, ys_array) for model in models}
    best_rmse = min(fit.rmse for fit in fits.values())
    scale = max(float(np.mean(np.abs(ys_array))), 1e-12)
    threshold = best_rmse * (1.0 + tolerance) + 1e-9 * scale
    for model in MODEL_ORDER:
        if model in fits and fits[model].rmse <= threshold:
            return FitResult(fits[model], fits)
    # Unreachable: the best model itself satisfies the threshold.
    raise AssertionError("model selection failed")


def median(values: Sequence[float]) -> float:
    """The sample median (average-of-two for even lengths)."""
    if not values:
        raise ValueError("median of an empty sequence")
    ordered = sorted(float(v) for v in values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class GrowthClass(NamedTuple):
    """Verdict of :func:`classify_growth`: model plus the evidence."""

    model: str
    fit: Fit
    flat: bool  # passed the normalized-deviation flatness test


def classify_growth(
    xs: Sequence[float],
    ys: Sequence[float],
    flat_slack: float = 0.25,
    models: Sequence[str] = MODEL_ORDER,
    tolerance: float = 0.15,
) -> GrowthClass:
    """Classify a measured series, biased toward calling flat data flat.

    Pure least squares struggles to discriminate "constant" from "log"
    on short noisy series: over a 100x range of x, log2(x) spans only a
    factor of ~7, so a log model with a tiny slope beats the constant
    model on almost any jitter.  This wrapper applies the robust
    flatness test first — if every point sits within ``flat_slack`` of
    the series median, the series is declared constant regardless of
    which basis function happens to chase the noise best — and falls
    back to :func:`fit_series` model selection otherwise, where a best
    fit with a negative slope (the cost *falls* as x grows) also counts
    as constant.

    The conformance profiler (:mod:`repro.obs.conformance`) uses this to
    turn per-append cost sweeps into IM-class verdicts.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    center = median(ys)
    scale = max(abs(center), 1e-12)
    flat = all(abs(float(y) - center) <= flat_slack * scale for y in ys)
    if flat and all(y == ys[0] for y in ys):
        # Exactly flat: skip the regression entirely.
        value = float(ys[0])
        return GrowthClass("constant", Fit("constant", value, 0.0, 0.0, 1.0), True)
    result = fit_series(xs, ys, models=models, tolerance=tolerance)
    # A best fit that slopes downward is no growth either: the cost is
    # bounded by a constant however far it falls (a hash chain one entry
    # shorter is a large relative dip on a count of five).
    if flat or result.best.slope < 0:
        constant = result.fits.get("constant")
        if constant is None:
            constant = _fit_model("constant", xs, ys)
        return GrowthClass("constant", constant, flat)
    return GrowthClass(result.model, result.best, False)


def is_flat(
    xs: Sequence[float], ys: Sequence[float], slack: float = 0.5
) -> bool:
    """Whether the series is independent of x, up to *slack* (50%).

    Used by tests asserting Theorem 4.2's |C|-independence without
    depending on wall-clock stability: the last measurement must be
    within ``(1 + slack)`` of the series mean.
    """
    mean = sum(ys) / len(ys)
    if mean == 0:
        return all(y == 0 for y in ys)
    return all(abs(y - mean) <= slack * abs(mean) for y in ys)
