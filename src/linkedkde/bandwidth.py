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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .series_solver import _SpectralFit, truncation_bound
from .types import (
    DegenerateSampleError,
    FlatDensityError,
    RatioEstimationError,
    SampleSet,
    _q_weights,
    validate_ratio,
    validate_time,
)

# The rules as applied; each is asked for by its name up to the first "_" (_rule_names).
RULES = ("oracle_matching", "oracle_nonmatching", "silverman", "lscv", "fixed")

# Silverman's rule takes a std or IQR of at most this many ulps of the largest
# sample as zero spread. Samples within 4 ulps of each other have a std of
# up to 3.1 ulps, most of it the rounding of their mean (n up to 1e6).
_SPREAD_ULPS = 8

# Candidate times that LSCV searches when the caller gives none.
DEFAULT_LSCV_GRID = np.geomspace(1e-4, 1.0, 30)
DEFAULT_LSCV_GRID.flags.writeable = False


@dataclass(frozen=True, eq=False)
class BandwidthSelection:
    """How the squared bandwidth t, and the ratio r it is read at, were chosen.

    ``rule`` is the rule as applied, one of ``RULES``. ``r_fallback`` says
    why r = 1 was taken when an estimated ratio found an empty right
    window. LSCV sets the sorted candidates ``t_grid``, their scores
    ``objective``, t's index ``argmin_index``, and ``fit``, which reads the
    estimate at any candidate with no further transform call. A record
    compares by identity and hashes as an object, since it may hold arrays.
    """

    t: float
    rule: str
    r: float | None = None
    r_fallback: str | None = None
    t_grid: np.ndarray | None = None
    objective: np.ndarray | None = None
    argmin_index: int | None = None
    fit: _SpectralFit | None = field(default=None, repr=False)

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
        for f in fields(self):
            if math.isnan(getattr(self, f.name)):
                raise ValueError(f"{f.name} must not be NaN")
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
    # The extremes and the order statistics on either side of each quartile,
    # at numpy's default positions (n - 1) q, are read from one sorted copy.
    # numpy's sort is vectorised and a partition at six kth is not: with numpy
    # 2.4 on an AVX-512 x86-64 core the sort took 42 µs against 182 µs at
    # n = 1e4, and 7.6 ms against 15.0 ms at 1e6.
    positions = [(n - 1) * 0.25, (n - 1) * 0.75] if n >= 4 else []
    ordered = np.sort(x)
    lo, hi = float(ordered[0]), float(ordered[-1])
    # The std of identical values is rounding noise (5.6e-17 for 30 copies of 0.3), not 0,
    # and so is a spread of a few ulps: below the floor it counts as none.
    floor = _SPREAD_ULPS * float(np.spacing(max(abs(lo), abs(hi))))
    sigma = float(np.std(x, ddof=1))
    if hi == lo or sigma <= floor:
        raise DegenerateSampleError("sample has zero spread")
    if positions:
        q25, q75 = (_interpolate(ordered, p) for p in positions)
        iqr = q75 - q25
        if iqr > floor:
            sigma = min(sigma, iqr / 1.34)
    bw = (4.0 / (3.0 * n)) ** 0.2 * sigma
    return BandwidthSelection(t=bw * bw, rule="silverman")


def _interpolate(part: np.ndarray, position: float) -> float:
    """The order statistic at a fractional position, as ``np.percentile`` interpolates it.

    ``part`` holds the order statistics at floor(position) and the next
    index; numpy's linear rule counts from the nearer one, bit for bit.
    """
    i = int(position)
    gamma = position - i
    a, b = float(part[i]), float(part[i + 1])
    d = b - a
    return a + d * gamma if gamma < 0.5 else b - d * (1.0 - gamma)


def lscv_bandwidth(samples, r: float, t_grid) -> BandwidthSelection:
    """Minimize the LSCV objective over a one-dimensional grid of candidate times.

    LSCV(t) = int f_hat^2 dx - (2/n) sum_i f_hat_{-i}(X_i): the integral is
    exact, by FFT correlation of the series' mode weights, and the
    leave-one-out values come from the full estimate and the diagonal kernel
    values K(r; X_i, X_i, t), whose sample means are closed forms in the
    transforms c0, c1 and s0, so neither the series nor a kernel is
    evaluated. All candidates are scored from one transform call at 2N modes
    (N sized for the smallest candidate, O(n + N log N) on the Taylor
    cells), in one batch: one 2-D FFT pair over a candidates x N array of
    mode weights and matrix-vector products, O(N log N) per candidate with
    no integration grid. Ties are broken toward larger t (the smoother
    estimate). The record keeps r, the sorted curve and the fit it was
    scored from. Raises ValueError for a t_grid that is not a non-empty
    one-dimensional array of positive times, and FloatingPointError naming
    the first time whose score is not finite, rather than let a NaN win or
    lose the minimization.
    """
    samples = SampleSet.coerce(samples)
    if samples.n < 3:
        raise ValueError("cross-validation needs at least three samples")
    if np.ptp(samples.values) == 0.0:
        raise DegenerateSampleError("all samples identical; LSCV is undefined")
    r = validate_ratio(r)
    t_arr = np.asarray(t_grid, dtype=float)
    if t_arr.ndim != 1:
        raise ValueError(f"t_grid must be one-dimensional, got {t_arr.ndim} dimensions")
    t_arr = np.sort(t_arr)
    if t_arr.size == 0:
        raise ValueError("t_grid must be non-empty")
    if np.any(t_arr <= 0.0):
        raise ValueError("candidate times must be positive")
    fit = _SpectralFit.from_samples(samples, r, truncation_bound(t_arr[0]), lscv=True)
    scores = fit.lscv_scores(t_arr)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise FloatingPointError(
            f"LSCV score is not finite at t={t_arr[bad[0]]:.6g} for r={r:.6g} "
            f"({bad.size} of {t_arr.size} candidates)"
        )
    best = t_arr.size - 1 - int(np.argmin(scores[::-1]))
    return BandwidthSelection(
        t=float(t_arr[best]), rule="lscv", r=r, t_grid=t_arr, objective=scores, argmin_index=best, fit=fit
    )


def boundary_bias_factor(r: float) -> float:
    """A(r) = (4 - 2 sqrt(2))/sqrt(pi) * (1 + q^2)/2, the factor (r^2 + 1)/(1 + r)^2 in q; in [A(1), A(0)], A(1/r) = A(r)."""
    q = _q_weights(validate_ratio(r))[0]
    return (4.0 - 2.0 * math.sqrt(2.0)) / math.sqrt(math.pi) * (1.0 + q * q) / 2.0


def oracle_amise_bandwidth(n: int, info: TargetDensityInfo) -> BandwidthSelection:
    """Closed-form asymptotically optimal squared bandwidth.

    Matching derivatives (f'(0) = f'(1)): t* = (2 n sqrt(pi) ||f''||^2)^{-2/5},
    independent of r. Otherwise t* = (2 n sqrt(pi) A(r))^{-1/2} / |gap|.
    Raises ValueError when the quantity used is infinite (an infinite
    endpoint slope, as beta_mixture has for 1 < a < 2, or infinite
    roughness), since t* would be 0.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    advice = "so the AMISE oracle is undefined; use --bandwidth silverman|lscv"
    gap = info.fprime_gap
    if not math.isfinite(gap):
        slope = "f'(0)" if not math.isfinite(info.fprime0) else "f'(1)"
        raise ValueError(f"the endpoint slope {slope} is infinite, and with it the derivative gap, {advice}")
    if gap == 0.0:
        if not math.isfinite(info.f_second_norm_sq):
            raise ValueError(f"the roughness ||f''||^2 is infinite, {advice}")
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


def _rule_names() -> tuple[str, ...]:
    """The rules :func:`_choose` takes, as asked: each name of ``RULES`` up to its first "_"."""
    return tuple(dict.fromkeys(name.partition("_")[0] for name in RULES))


def _check_rule(rule: str, fixed_t: float | None = None) -> None:
    """Raise ValueError unless :func:`_choose` takes ``rule``, with a valid ``fixed_t`` given exactly for ``fixed``."""
    if rule not in _rule_names():
        raise ValueError(f"unknown bandwidth rule {rule!r}")
    if rule == "fixed" and fixed_t is None:
        raise ValueError("fixed bandwidth rule needs a value for t")
    if rule != "fixed" and fixed_t is not None:
        raise ValueError(f"a fixed t ({fixed_t}) goes only with the fixed bandwidth rule, not with {rule!r}")
    if fixed_t is not None:
        validate_time(fixed_t)


def _choose(
    samples: SampleSet, r: float | str, rule: str, fixed_t: float | None = None, info: TargetDensityInfo | None = None
) -> BandwidthSelection:
    """The record of the ratio and time an estimate is read at.

    ``r`` is a ratio, passed through unvalidated, or ``"est"``: then
    :func:`estimate_r`, or r = 1 with the reason in ``r_fallback`` when its
    right window is empty. ``rule``, already checked, picks the record:
    :func:`oracle_amise_bandwidth` of ``info``, :func:`silverman_bandwidth`,
    :func:`lscv_bandwidth` over ``DEFAULT_LSCV_GRID`` (with its curve and
    fit), or ``fixed`` at ``fixed_t``; r and ``r_fallback`` are then set.
    """
    r_fallback = None
    if r == "est":
        try:
            r = estimate_r(samples)
        except RatioEstimationError as exc:
            r, r_fallback = 1.0, str(exc)
    if rule == "oracle":
        selection = oracle_amise_bandwidth(samples.n, info)
    elif rule == "silverman":
        selection = silverman_bandwidth(samples)
    elif rule == "lscv":
        selection = lscv_bandwidth(samples, r, DEFAULT_LSCV_GRID)
    else:
        selection = BandwidthSelection(t=float(fixed_t), rule="fixed")
    return replace(selection, r=r, r_fallback=r_fallback)
