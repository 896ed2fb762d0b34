"""Baseline estimators the linked model is compared against.

``gaussian_kde_baseline`` is the whole-line Gaussian KDE with no boundary
correction; by design it leaks probability mass outside [0, 1] when samples
sit near a boundary. ``cosine_kde`` solves the heat equation with reflecting
ends (zero endpoint slopes), the cosine-expansion comparison model.

Both run on the spectral core: sample transforms from
:func:`empirical_transforms`, then, on a uniform grid, one inverse FFT. The
cosine estimate is a diffusion with reflecting ends in its cosine-transform
form (Botev, Grotowski & Kroese, Ann. Statist. 2010); the Gaussian KDE on
[0, 1] equals a heat kernel periodic on the least power-of-two period long
enough that its images are negligible there. Up to t = 1 / (2 ln 1e16),
about 0.0136, that period is 2, and the Gaussian reads the transforms of
X / 2 that the cosine estimate reads; each estimate's core takes the
transforms, so a caller holding them makes no further transform call.
"""

from __future__ import annotations

import math

import numpy as np

from .series_solver import EmpiricalTransforms, _block_size, _cell_synthesis, _synthesize, empirical_transforms
from .types import EvaluationGrid, GridDensity, SampleSet, validate_time

# Periodic-kernel images and omitted modes stay below this fraction of the kernel peak.
_GAUSSIAN_TOL = 1e-16
# Longest period of the FFT route, in interval lengths; reached at t near 3.
_MAX_PERIOD = 16
# The cosine expansion keeps every mode whose decay factor is at least this.
_COSINE_TOL = 1e-12


def _periodic_plan(t: float, divisions: int) -> tuple[int, int]:
    """``(L, K)``: FFT length and mode count of the periodic Gaussian on j / M.

    The period P = L / M is the least power of two with
    P >= 1 + sqrt(2 t ln(1/tol)), so every image but the nearest is below
    tol on [0, 1]; modes up to K = ceil(P sqrt(2 ln(1/tol) / t) / (2 pi))
    leave out factors below tol. P = 2 holds for t up to
    1 / (2 ln(1/tol)), about 0.0136, and there the transforms of X / P are
    those of X / 2 that the cosine baseline and the linked series read.
    The search stops at twice the longest period of the FFT route, which
    the route then declines, so a reach that overflows to inf ends it too.
    """
    log_tol = math.log(1.0 / _GAUSSIAN_TOL)
    reach = 1.0 + math.sqrt(2.0 * t * log_tol)
    period = 2
    while period < reach and period <= _MAX_PERIOD:
        period *= 2
    return period * divisions, math.ceil(period * math.sqrt(2.0 * log_tol / t) / (2.0 * math.pi))


def _fft_plan(t: float, grid: EvaluationGrid) -> tuple[int, int] | None:
    """``(P, K)`` of the Gaussian's FFT route on grid, or None where it takes the direct sum.

    The direct sum serves grids of explicit points, grids that do not
    resolve the kernel (K + 1 > L) and periods beyond 16.
    """
    M = grid.divisions
    if M is None:
        return None
    length, n_modes = _periodic_plan(t, M)
    if n_modes + 1 <= length <= _MAX_PERIOD * M:
        return length // M, n_modes
    return None


def _periodic_gaussian(tr: EmpiricalTransforms, period: int, n_modes: int, t: float, divisions: int) -> np.ndarray:
    """The Gaussian KDE on j / M from transforms of X / P carrying at least K modes.

    f(j / M) = Re sum_k c_k exp(2 pi i k j / L), with c_0 = 1 / P and
    c_k = 2 exp(-(k_k / P)^2 t / 2) (c0_k - i s0_k) / P, one length-L
    inverse FFT. FFT round-off below zero, about 1e-15 of the peak, is
    clipped, as the exact value is positive.
    """
    k = 2.0 * math.pi * np.arange(n_modes + 1)
    modes = slice(0, n_modes + 1)
    coef = (2.0 / period) * np.exp(-0.5 * (k / period) ** 2 * t) * (tr.c0[modes] - 1j * tr.s0[modes])
    coef[0] = 1.0 / period
    values = _synthesize(coef, period * divisions)[: divisions + 1]
    return np.maximum(values, 0.0, out=values)


def gaussian_kde_baseline(samples, t: float, grid: EvaluationGrid | None = None) -> GridDensity:
    """Whole-line Gaussian KDE with bandwidth sqrt(t); no boundary correction.

    On the uniform grid j / M the kernel is summed as the heat kernel
    periodic on P = L / M (see :func:`_periodic_plan`) from the transforms
    of X / P, at O(K n + L log L). Grids built from explicit points, grids
    that do not resolve the kernel (K + 1 > L, t below about 2e-6 on the
    default grid) and periods beyond 16 take the direct O(n * grid) sum,
    in blocks of bounded memory.
    """
    samples = SampleSet.coerce(samples)
    t = validate_time(t)
    if grid is None:
        grid = EvaluationGrid.uniform(1001)
    plan = _fft_plan(t, grid)
    if plan is not None:
        period, n_modes = plan
        tr = empirical_transforms(samples.values / period, n_modes)
        return GridDensity(grid=grid, values=_periodic_gaussian(tr, period, n_modes, t, grid.divisions), r=None, t=t)

    pts = grid.points
    bw = math.sqrt(t)
    norm = 1.0 / (samples.n * bw * math.sqrt(2.0 * math.pi))
    acc = np.zeros_like(pts)
    vals = samples.values
    step = _block_size(pts.size - 1)
    for start in range(0, vals.size, step):
        block = vals[start : start + step]
        z = (pts[None, :] - block[:, None]) / bw
        acc += np.exp(-0.5 * z * z).sum(axis=0)
    return GridDensity(grid=grid, values=norm * acc, r=None, t=t)


def cosine_mode_count(t: float) -> int:
    """Modes kept in the cosine expansion: exp(-k^2 pi^2 t / 2) >= 1e-12."""
    return max(int(math.ceil(math.sqrt(2.0 * math.log(1.0 / _COSINE_TOL) / (math.pi * math.pi * t)))), 1)


def _cosine_series(a0: float, coef: np.ndarray, t: float, points, divisions: int | None = None) -> np.ndarray:
    """``a0 + 2 sum_k exp(-k^2 pi^2 t / 2) coef[k-1] cos(k pi x)`` at the points.

    cos(k pi x) is the real part of exp(2 pi i k x / 2), so on the uniform
    grid j / M (``divisions`` = M) one length-2M synthesis gives every value,
    and other points are summed at x / 2 on the Taylor cells
    (:func:`series_solver._cell_synthesis`), in O(K log K) memory plus a few
    values per point. Times past 160, where every weight underflows to 0
    (from about 151), are taken as 160, so that k^2 t stays finite.
    """
    t = min(t, 160.0)
    k = np.arange(1, len(coef) + 1)
    weights = 2.0 * np.exp(-0.5 * (k * math.pi) ** 2 * t) * coef
    modes = np.concatenate(([a0], weights))
    if divisions is not None:
        return _synthesize(modes, 2 * divisions)[: divisions + 1]
    return _cell_synthesis(modes, points / 2.0)


def cosine_kde(samples, t: float, grid: EvaluationGrid | None = None) -> GridDensity:
    """Heat-equation estimate with zero endpoint slopes (cosine expansion).

    f_c(x, t) = a_0 + 2 sum_k exp(-k^2 pi^2 t / 2) a_k cos(k pi x) with
    a_k the sample means of cos(k pi X); the estimate always has unit mass.
    The a_k are the transforms c0 of X / 2, at O(K n) for K modes; a uniform
    grid then costs one length-2M inverse FFT, any other grid a synthesis on
    the Taylor cells, O(K log K + grid).
    """
    samples = SampleSet.coerce(samples)
    t = validate_time(t)
    if grid is None:
        grid = EvaluationGrid.uniform(1001)
    coef = empirical_transforms(samples.values / 2.0, cosine_mode_count(t)).c0[1:]
    values = _cosine_series(1.0, coef, t, grid.points, grid.divisions)
    return GridDensity(grid=grid, values=values, r=None, t=t)
