"""Error norms on the evaluation grid and log-log rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import EvaluationGrid, GridDensity


@dataclass(frozen=True)
class ErrorReport:
    """L2 and sup-norm errors of one estimate against grid truth values."""

    l2: float
    linf: float
    grid: EvaluationGrid
    n: int
    method: str
    seed: int


def error_metrics(
    estimate: GridDensity, truth_values, n: int = 0, method: str = "", seed: int = 0
) -> ErrorReport:
    """Grid L2 (trapezoid) and sup-norm distance between estimate and truth."""
    truth = np.asarray(truth_values, dtype=float)
    if truth.shape != estimate.values.shape:
        raise ValueError("truth values must match the estimate grid")
    l2, linf = _error_norms(estimate.values - truth, estimate.grid.points)
    return ErrorReport(l2=float(l2), linf=float(linf), grid=estimate.grid, n=n, method=method, seed=seed)


def _error_norms(diff: np.ndarray, x: np.ndarray):
    """Grid L2 (trapezoid over the points x) and sup norms of ``diff`` along its last axis."""
    return np.sqrt(np.trapezoid(diff * diff, x)), np.abs(diff).max(axis=-1)


def rate_fit(ns, mean_errors) -> float:
    """Least-squares slope of log(mean_error) against log(n).

    Raises ValueError unless sizes and errors are matching lists of finite
    positive values with at least two distinct sizes.
    """
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(mean_errors, dtype=float)
    if ns.shape != errs.shape or ns.size < 2:
        raise ValueError("need matching lists of at least two points")
    if not (np.all(np.isfinite(ns)) and np.all(np.isfinite(errs))):
        raise ValueError("rate fitting needs finite sizes and errors")
    if np.any(ns <= 0.0) or np.any(errs <= 0.0):
        raise ValueError("rate fitting needs positive sizes and errors")
    if np.unique(ns).size < 2:
        raise ValueError("rate fitting needs at least two distinct sizes")
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    return float(slope)
