"""Bandwidth (stopping-time) selection and the boundary-ratio estimator.

The squared bandwidth t is the diffusion time at which the estimate is
read off. Selection rules:

* Silverman's Gaussian-reference rule of thumb;
* least-squares cross-validation over a time grid;
* closed-form AMISE-optimal choices when the target's roughness
  ``||f''||_{L2}^2`` or derivative gap ``f'(1) - f'(0)`` is known.

``estimate_r`` recovers the boundary ratio from boundary window counts with
half-width n^{-1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .heat_kernels import eval_K1, eval_K1_dx
from .series_solver import SeriesConfig, empirical_transforms, eval_series_solution, truncation_bound
from .types import (
    DegenerateSampleError,
    FlatDensityError,
    RatioEstimationError,
    SampleSet,
    SummationControl,
    validate_ratio,
    validate_time,
)

RULES = ("silverman", "lscv", "oracle_matching", "oracle_nonmatching", "fixed")

_LSCV_CTL = SummationControl(tol=1e-12)

# Candidate times that LSCV searches when the caller gives none.
DEFAULT_LSCV_GRID = np.geomspace(1e-4, 1.0, 30)
DEFAULT_LSCV_GRID.flags.writeable = False


@dataclass(frozen=True)
class BandwidthSelection:
    """Chosen squared bandwidth plus the rule that produced it."""

    t: float
    rule: str
    diagnostics: Optional[dict] = None

    def __post_init__(self):
        validate_time(self.t)
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}, got {self.rule!r}")


@dataclass(frozen=True)
class TargetDensityInfo:
    """Analytic facts about a target density used by the oracle rules."""

    f_second_norm_sq: float
    fprime0: float
    fprime1: float
    r_true: float

    def __post_init__(self):
        if self.f_second_norm_sq < 0.0:
            raise ValueError("||f''||^2 must be non-negative")
        validate_ratio(self.r_true)

    @property
    def fprime_gap(self) -> float:
        return self.fprime1 - self.fprime0


def silverman_bandwidth(samples) -> BandwidthSelection:
    """Silverman's rule of thumb: t = ((4/(3n))^{1/5} sigma_hat)^2.

    sigma_hat is the sample standard deviation, robustified by
    min(std, IQR/1.34) once the sample is large enough (n >= 4) for
    quartiles to be meaningful.
    """
    samples = SampleSet.coerce(samples)
    x = samples.values
    n = samples.n
    if n < 2:
        raise DegenerateSampleError("Silverman's rule needs at least two samples")
    sigma = float(np.std(x, ddof=1))
    if n >= 4:
        q75, q25 = np.percentile(x, [75.0, 25.0])
        iqr = float(q75 - q25)
        if iqr > 0.0:
            sigma = min(sigma, iqr / 1.34)
    if sigma <= 0.0:
        raise DegenerateSampleError("sample has zero spread")
    bw = (4.0 / (3.0 * n)) ** 0.2 * sigma
    return BandwidthSelection(t=bw * bw, rule="silverman")


def _self_kernel(r: float, x: np.ndarray, t: float) -> np.ndarray:
    """K(r; x, x, t) along the diagonal, needed by leave-one-out LSCV."""
    q = (1.0 - r) / (1.0 + r)
    out = np.full_like(x, eval_K1(0.0, t))
    if r != 1.0:
        out = out + eval_K1(2.0 * x, t) * (2.0 * x - 1.0) * q
        out = out + t * q * eval_K1_dx(2.0 * x, t)
    return out


def _lscv_samples(samples) -> SampleSet:
    samples = SampleSet.coerce(samples)
    if samples.n < 3:
        raise ValueError("cross-validation needs at least three samples")
    if np.ptp(samples.values) == 0.0:
        raise DegenerateSampleError("all samples identical; LSCV is undefined")
    return samples


def _lscv_score(samples: SampleSet, tr, cfg: SeriesConfig, t: float, xs: np.ndarray) -> float:
    """LSCV(t) from precomputed transforms; see :func:`lscv_objective`."""
    f_grid = eval_series_solution(tr, cfg, t, xs)
    f_at_samples = eval_series_solution(tr, cfg, t, samples.values)
    n = samples.n
    loo = (n * f_at_samples - _self_kernel(cfg.r, samples.values, t)) / (n - 1.0)
    return float(np.trapezoid(f_grid * f_grid, xs) - 2.0 * loo.mean())


def lscv_objective(samples, r: float, t: float, grid_size: int = 2001) -> float:
    """Least-squares cross-validation score of the linked estimate at time t.

    LSCV(t) = int f_hat^2 dx - (2/n) sum_i f_hat_{-i}(X_i), with the integral
    taken by trapezoid on a uniform grid and the leave-one-out values formed
    from the full estimate and the diagonal kernel values.
    """
    samples = _lscv_samples(samples)
    t = validate_time(t)
    cfg = SeriesConfig(r=validate_ratio(r), truncation=_LSCV_CTL)
    tr = empirical_transforms(samples, truncation_bound(t, _LSCV_CTL.tol))
    return _lscv_score(samples, tr, cfg, t, np.linspace(0.0, 1.0, grid_size))


def lscv_bandwidth(samples, r: float, t_grid, grid_size: int = 2001) -> BandwidthSelection:
    """Minimize the LSCV objective over a grid of candidate times.

    Ties are broken toward larger t (the smoother estimate); the full
    objective curve is kept in the diagnostics.
    """
    samples = _lscv_samples(samples)
    t_arr = np.sort(np.asarray(t_grid, dtype=float))
    if t_arr.size == 0:
        raise ValueError("t_grid must be non-empty")
    if np.any(t_arr <= 0.0):
        raise ValueError("candidate times must be positive")

    # Transforms are t-independent; size them once for the smallest time.
    cfg = SeriesConfig(r=validate_ratio(r), truncation=_LSCV_CTL)
    tr = empirical_transforms(samples, truncation_bound(t_arr.min(), _LSCV_CTL.tol))
    xs = np.linspace(0.0, 1.0, grid_size)
    scores = np.array([_lscv_score(samples, tr, cfg, t, xs) for t in t_arr])

    best = t_arr.size - 1 - int(np.argmin(scores[::-1]))
    return BandwidthSelection(
        t=float(t_arr[best]),
        rule="lscv",
        diagnostics={"t_grid": t_arr, "objective": scores, "argmin_index": best},
    )


def boundary_bias_factor(r: float) -> float:
    """A(r) = (4 - 2 sqrt(2))/sqrt(pi) * (r^2 + 1)/(1 + r)^2; invariant under r -> 1/r."""
    r = validate_ratio(r)
    return (4.0 - 2.0 * math.sqrt(2.0)) / math.sqrt(math.pi) * (r * r + 1.0) / (1.0 + r) ** 2


def oracle_amise_bandwidth(n: int, info: TargetDensityInfo) -> BandwidthSelection:
    """Closed-form asymptotically optimal squared bandwidth.

    Matching derivatives (f'(0) = f'(1)): t* = (2 n sqrt(pi) ||f''||^2)^{-2/5},
    independent of r. Otherwise t* = (2 n sqrt(pi) A(r))^{-1/2} / |gap|.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    gap = info.fprime_gap
    if gap == 0.0:
        if info.f_second_norm_sq <= 0.0:
            raise FlatDensityError(
                "flat density limit: both the derivative gap and ||f''||^2 vanish"
            )
        t = (2.0 * n * math.sqrt(math.pi) * info.f_second_norm_sq) ** (-0.4)
        return BandwidthSelection(t=t, rule="oracle_matching")
    a_r = boundary_bias_factor(info.r_true)
    t = (2.0 * n * math.sqrt(math.pi) * a_r) ** (-0.5) / abs(gap)
    return BandwidthSelection(t=t, rule="oracle_nonmatching")


def amise_value(t: float, n: int, info: TargetDensityInfo) -> float:
    """Leading-order AMISE at time t for a known target.

    Matching case: 1/(2 n sqrt(pi t)) + t^2 ||f''||^2 / 4; otherwise the
    bias term is t^{3/2} A(r)/3 * gap^2. The matching-case minimum is
    5 ||f''||^{2/5} / (2^{14/5} pi^{2/5}) n^{-4/5}.
    """
    t = validate_time(t)
    if n < 1:
        raise ValueError("sample size must be positive")
    variance = 1.0 / (2.0 * n * math.sqrt(math.pi * t))
    gap = info.fprime_gap
    if gap == 0.0:
        return variance + t * t * info.f_second_norm_sq / 4.0
    a_r = boundary_bias_factor(info.r_true)
    return variance + t ** 1.5 * (a_r / 3.0) * gap * gap


def estimate_r(samples) -> float:
    """Boundary-ratio estimate: count(X < n^{-1/2}) / count(X > 1 - n^{-1/2}).

    Inequalities are strict; samples exactly at the thresholds are excluded.
    Raises RatioEstimationError (carrying the numerator count) when the
    right window is empty, so the caller may fall back to r = 1.
    """
    samples = SampleSet.coerce(samples)
    x = samples.values
    thr = 1.0 / math.sqrt(samples.n)
    left = int(np.count_nonzero(x < thr))
    right = int(np.count_nonzero(x > 1.0 - thr))
    if right == 0:
        raise RatioEstimationError(
            f"no samples above 1 - n^(-1/2) = {1.0 - thr:.6g}; ratio undefined",
            left_count=left,
        )
    return left / right
