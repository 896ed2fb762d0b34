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

from .series_solver import (
    EmpiricalTransforms,
    SeriesConfig,
    _mode_basis,
    _mode_weights,
    _q_weights,
    empirical_transforms,
    truncation_bound,
)
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


def _diagonal_mean(tr: EmpiricalTransforms, r: float, t: float) -> float:
    """Sample mean of the diagonal kernel K(r; X, X, t), from transforms at 2N modes.

    K(r; x, x, t) = K1(0, t) + q K1(2x, t) (2x - 1) + t q K1'(2x, t), and
    cos(k_n 2x) = cos(k_{2n} x), so with w_n = exp(-k_n^2 t / 2), n = 1..N,
    and c0, c1, s0 read at index 2n the mean is

        1 + 2 sum w_n + q [2 c1(0) - 1 + 2 sum w_n (2 c1 - c0)] - 2 t q sum k_n w_n s0.

    The cost is O(N); the samples are not touched.
    """
    q = _q_weights(r)[0]
    k = 0.5 * tr.modes[2::2]
    w = np.exp(-0.5 * k * k * t)
    reflected = 2.0 * tr.c1[0] - 1.0 + 2.0 * (w @ (2.0 * tr.c1[2::2] - tr.c0[2::2]))
    slope = -2.0 * ((k * w) @ tr.s0[2::2])
    return 1.0 + 2.0 * w.sum() + q * (reflected + t * slope)


def _lscv_samples(samples) -> SampleSet:
    samples = SampleSet.coerce(samples)
    if samples.n < 3:
        raise ValueError("cross-validation needs at least three samples")
    if np.ptp(samples.values) == 0.0:
        raise DegenerateSampleError("all samples identical; LSCV is undefined")
    return samples


def _lscv_scores(samples: SampleSet, r: float, t_arr: np.ndarray, grid_size: int) -> np.ndarray:
    """LSCV(t) for each candidate time, scored from the sample transforms.

    One transform call at 2N modes, with N sized for the smallest time,
    serves every candidate: modes 0..N give the estimate, and the even
    modes 2n give the diagonal kernel term (:func:`_diagonal_mean`). The
    mode basis cos(k x) l(x), sin(k x) is built once on the integration
    grid. Each candidate then costs two matrix-vector products on the grid
    and O(N) closed forms for the sample mean of the estimate and of the
    diagonal; the samples are read only by the transforms. Raises
    FloatingPointError naming the first time whose score is not finite,
    instead of letting a NaN win or lose the minimization.
    """
    cfg = SeriesConfig(r=r, truncation=_LSCV_CTL)
    n_modes = truncation_bound(t_arr.min(), _LSCV_CTL.tol)
    doubled = empirical_transforms(samples, 2 * n_modes)
    head = slice(0, n_modes + 1)
    tr = EmpiricalTransforms(
        modes=doubled.modes[head],
        c0=doubled.c0[head],
        s0=doubled.s0[head],
        s1=doubled.s1[head],
        n_samples=doubled.n_samples,
        c1=doubled.c1[head],
    )
    xs = np.linspace(0.0, 1.0, grid_size)
    ell, cos_basis, sin_basis = _mode_basis(r, tr.n_modes, xs)
    # Sample means of cos(k X) l(X), modes 0..N; entry 0 is the mean of l(X).
    q, one_minus_q, _ = _q_weights(r)
    mean_cos_ell = one_minus_q * tr.c0 + 2.0 * q * tr.c1
    n = samples.n

    scores = np.empty(t_arr.size)
    for i, t in enumerate(t_arr):
        w_cos, w_sin = _mode_weights(tr, cfg, t)
        f_grid = tr.c0[0] * ell + w_cos @ cos_basis + w_sin @ sin_basis
        mean_f = mean_cos_ell[0] + w_cos @ mean_cos_ell[1:] + w_sin @ tr.s0[1:]
        loo = (n * mean_f - _diagonal_mean(doubled, r, t)) / (n - 1.0)
        scores[i] = np.trapezoid(f_grid * f_grid, xs) - 2.0 * loo

    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise FloatingPointError(
            f"LSCV score is not finite at t={t_arr[bad[0]]:.6g} for r={r:.6g} "
            f"({bad.size} of {t_arr.size} candidates)"
        )
    return scores


def lscv_objective(samples, r: float, t: float, grid_size: int = 2001) -> float:
    """Least-squares cross-validation score of the linked estimate at time t.

    LSCV(t) = int f_hat^2 dx - (2/n) sum_i f_hat_{-i}(X_i), with the integral
    taken by trapezoid on a uniform grid of ``grid_size`` points and the
    leave-one-out values formed from the full estimate and the diagonal
    kernel values K(r; X_i, X_i, t). Both sample means, of the full estimate
    and of the diagonal, come in closed form from the transforms c0, c1 and
    s0, so neither the series nor a kernel is evaluated at the samples.
    Raises FloatingPointError when the score is not finite.
    """
    samples = _lscv_samples(samples)
    t = validate_time(t)
    return float(_lscv_scores(samples, validate_ratio(r), np.array([t]), grid_size)[0])


def lscv_bandwidth(samples, r: float, t_grid, grid_size: int = 2001) -> BandwidthSelection:
    """Minimize the LSCV objective over a grid of candidate times.

    Every candidate is scored as in :func:`lscv_objective`, from one set of
    transforms (at 2N modes, O(N n) once) and one grid basis, so a candidate
    costs O(N * grid_size). Ties are broken toward larger t (the
    smoother estimate); the full objective curve is kept in the
    diagnostics. Raises FloatingPointError, naming the time, when any
    score is not finite.
    """
    samples = _lscv_samples(samples)
    t_arr = np.sort(np.asarray(t_grid, dtype=float))
    if t_arr.size == 0:
        raise ValueError("t_grid must be non-empty")
    if np.any(t_arr <= 0.0):
        raise ValueError("candidate times must be positive")
    scores = _lscv_scores(samples, validate_ratio(r), t_arr, grid_size)

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
