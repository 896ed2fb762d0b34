"""Baseline estimators the linked model is compared against.

``gaussian_kde_baseline`` is the whole-line Gaussian KDE with no boundary
correction; by design it leaks probability mass outside [0, 1] when samples
sit near a boundary. ``cosine_kde`` solves the heat equation with reflecting
ends (zero endpoint slopes), the cosine-expansion comparison model.

Both run on the spectral core alone: sample transforms from
:func:`empirical_transforms`, their mode coefficients, then the one
evaluation of every series, :func:`series_solver._synthesis`, which states
the rule between its inverse FFT and the Taylor cells. The cosine
estimate is a diffusion with reflecting ends in its cosine-transform form
(Botev, Grotowski & Kroese, Ann. Statist. 2010); the Gaussian KDE on
[0, 1] equals a heat kernel periodic on the least power-of-two period
long enough that its images are negligible there. Up to t = 1 / (2 ln 1e16), about 0.0136, that period is
2, and the Gaussian reads the transforms of X / 2 that the cosine estimate
reads; each estimate's core takes the transforms, so a caller holding them
makes no further transform call. Both stop at the linked series' top
frequency, 2 pi ``MAX_MODES``: past it (t below about 8.1e-11 for the
cosine, 1.09e-10 for the Gaussian) they raise TruncationError.
"""

from __future__ import annotations

import math

import numpy as np

from .series_solver import MAX_MODES, _synthesis, empirical_transforms
from .types import EvaluationGrid, GridDensity, SampleSet, TruncationError, validate_time

# Periodic-kernel images and omitted modes stay below this fraction of the kernel peak.
_GAUSSIAN_TOL = 1e-16
# The cosine expansion keeps every mode whose decay factor is at least this.
_COSINE_TOL = 1e-12


def _mode_count(modes: float, period: int, t: float) -> int:
    """ceil(modes) of X / P, or TruncationError past the series' top frequency.

    Mode K of X / P has frequency 2 pi K / P, so the cap 2 pi ``MAX_MODES``
    of the linked series is K = P ``MAX_MODES``; an infinite count is past it.
    """
    if not modes <= period * MAX_MODES:
        raise TruncationError(
            f"t={t} needs {modes:.6g} modes of X / {period}, past the cap of {period * MAX_MODES} "
            f"(the top frequency 2 pi {MAX_MODES} of the linked series)"
        )
    return math.ceil(modes)


def _own(values: np.ndarray) -> np.ndarray:
    """The values in memory of their own: on the FFT route they are a view of the whole length-P M row."""
    return values if values.base is None else values.copy()


def _periodic_plan(t: float) -> tuple[int, int]:
    """``(P, K)``: period and mode count of the periodic Gaussian at time t.

    P is the least power of two, at least 2, with
    P >= reach = 1 + sqrt(2 t ln(1/tol)), so every image but the nearest is
    below tol on [0, 1]; modes up to K = ceil(P sqrt(2 ln(1/tol) / t) / (2 pi))
    leave out factors below tol. P = 2 holds for t up to
    1 / (2 ln(1/tol)), about 0.0136, and there the transforms of X / P are
    those of X / 2 that the cosine baseline reads; at any P, every
    (P / 2)-th mode of them is a mode of X / 2.
    The reach, formed from t / 128 (an exact power-of-four scaling), is the
    rounding of sqrt(2 t ln(1/tol)) wherever that is finite, and finite up
    to the largest double; P is read from its binary exponent. Raises
    TruncationError (:func:`_mode_count`) for t below about 1.09e-10.
    """
    log_tol = math.log(1.0 / _GAUSSIAN_TOL)
    reach = 1.0 + 16.0 * math.sqrt(t / 128.0 * log_tol)
    mantissa, exponent = math.frexp(reach)  # reach = mantissa 2^exponent, mantissa in [1/2, 1)
    period = max(2, 1 << (exponent - (mantissa == 0.5)))
    return period, _mode_count(period * math.sqrt(2.0 * log_tol / t) / (2.0 * math.pi), period, t)


def _gaussian_series(tr, period: int, n_modes: int, t: float, points, divisions: int | None = None) -> np.ndarray:
    """The Gaussian KDE at the points from transforms of X / P carrying at least K modes.

    f(x) = Re sum_k c_k exp(2 pi i k x / P), with c_0 = 1 / P and
    c_k = 2 exp(-(k_k / P)^2 t / 2) (c0_k - i s0_k) / P, by one
    :func:`series_solver._synthesis`. Round-off below zero, about 1e-15 of
    the peak, is clipped, as the exact value is positive.
    """
    k = 2.0 * math.pi * np.arange(n_modes + 1)
    modes = slice(0, n_modes + 1)
    coef = (2.0 / period) * np.exp(-0.5 * (k / period) ** 2 * t) * (tr.c0[modes] - 1j * tr.s0[modes])
    coef[0] = 1.0 / period
    values = _synthesis(coef, period, points, divisions)
    return np.maximum(values, 0.0, out=values)


def gaussian_kde_baseline(samples, t: float, grid: EvaluationGrid | None = None) -> GridDensity:
    """Whole-line Gaussian KDE with bandwidth sqrt(t); no boundary correction.

    The kernel is summed as the heat kernel periodic on P (see
    :func:`_periodic_plan`) from the K-mode transforms of X / P, at O(K n),
    then one :func:`series_solver._synthesis` of period P. No
    sample-by-point array is formed. Raises TruncationError past the
    linked series' top frequency, for t below about 1.09e-10.
    """
    samples = SampleSet.coerce(samples)
    t = validate_time(t)
    if grid is None:
        grid = EvaluationGrid.uniform(1001)
    period, n_modes = _periodic_plan(t)
    tr = empirical_transforms(samples.values / period, n_modes)
    values = _gaussian_series(tr, period, n_modes, t, grid.points, grid.divisions)
    return GridDensity(grid=grid, values=_own(values), r=None, t=t)


def cosine_mode_count(t: float) -> int:
    """Modes kept in the cosine expansion: exp(-k^2 pi^2 t / 2) >= 1e-12.

    Mode k of cos(k pi x) is mode k of X / 2, so past 2 ``MAX_MODES``
    modes, for t below about 8.1e-11, this raises TruncationError.
    """
    modes = math.sqrt(2.0 * math.log(1.0 / _COSINE_TOL) / (math.pi * math.pi * t))
    return max(_mode_count(modes, 2, t), 1)


def _cosine_series(a0: float, coef: np.ndarray, t: float, points, divisions: int | None = None) -> np.ndarray:
    """``a0 + 2 sum_k exp(-k^2 pi^2 t / 2) coef[k-1] cos(k pi x)`` at the points.

    cos(k pi x) is the real part of exp(2 pi i k x / 2): one
    :func:`series_solver._synthesis` of period 2. Times past 160, where
    every weight underflows to 0 (from about 151), are taken as 160, so
    that k^2 t stays finite.
    """
    t = min(t, 160.0)
    k = np.arange(1, len(coef) + 1)
    weights = 2.0 * np.exp(-0.5 * (k * math.pi) ** 2 * t) * coef
    return _synthesis(np.concatenate(([a0], weights)), 2, points, divisions)


def cosine_kde(samples, t: float, grid: EvaluationGrid | None = None) -> GridDensity:
    """Heat-equation estimate with zero endpoint slopes (cosine expansion).

    f_c(x, t) = a_0 + 2 sum_k exp(-k^2 pi^2 t / 2) a_k cos(k pi x) with
    a_k the sample means of cos(k pi X); the estimate always has unit mass.
    The a_k are the transforms c0 of X / 2, at O(K n) for K modes, then
    one :func:`series_solver._synthesis` of period 2. Raises
    TruncationError past the linked series' top frequency (see
    :func:`cosine_mode_count`).
    """
    samples = SampleSet.coerce(samples)
    t = validate_time(t)
    if grid is None:
        grid = EvaluationGrid.uniform(1001)
    coef = empirical_transforms(samples.values / 2.0, cosine_mode_count(t)).c0[1:]
    values = _cosine_series(1.0, coef, t, grid.points, grid.divisions)
    return GridDensity(grid=grid, values=_own(values), r=None, t=t)
