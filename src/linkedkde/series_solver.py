"""Generalized-eigenfunction series solution of the linked-boundary diffusion.

For initial data with cosine/sine transforms c0, s0, s1 the solution is

    f(x, t) = 2/(1+r) c0(0) phi_0(x)
              + sum_{n>=1} 4 exp(-k_n^2 t / 2) / (1+r) *
                { c0(k_n) phi_n(x) - k_n t (1-r) c0(k_n) sin(k_n x)
                  + [s0(k_n) - (1-r) s1(k_n)] sin(k_n x) },

with ``k_n = 2 pi n`` and ``phi_n(x) = (r + (1-r) x) cos(k_n x)``. The
``k_n t`` term is the non-separable contribution of the generalized
eigenfunctions; it vanishes identically at r = 1.

This module is the independent oracle for the kernel-form estimator and for
the binned finite-difference solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .types import (
    DEFAULT_CONTROL,
    SampleSet,
    SummationControl,
    TruncationError,
    validate_ratio,
    validate_time,
)

# Loose provable envelope on the bracketed coefficients for probability data;
# conservative near r = 0 where |1 - r| is largest.
COEFFICIENT_ENVELOPE = 8.0

_TRANSFORM_CHUNK = 4096


@dataclass(frozen=True)
class EmpiricalTransforms:
    """Mode-indexed transforms of the initial data at k_n = 2 pi n, n = 0..N.

    ``c0``, ``s0`` and ``s1`` are the means of cos(k_n X), sin(k_n X) and
    X sin(k_n X); they fix the series solution at every time. ``c1``, the
    mean of X cos(k_n X), is carried only by empirical transforms: with
    ``c0`` and ``s0`` it gives the sample mean of the estimate in closed
    form, which least-squares cross-validation needs. Transforms of
    analytic data leave it ``None``.
    """

    modes: np.ndarray
    c0: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    n_samples: int
    c1: np.ndarray | None = None

    def __post_init__(self):
        lengths = {len(self.modes), len(self.c0), len(self.s0), len(self.s1)}
        if self.c1 is not None:
            lengths.add(len(self.c1))
        if len(lengths) != 1:
            raise ValueError("transform arrays must share one length")

    @property
    def n_modes(self) -> int:
        """Largest mode index N carried by the transforms."""
        return int(len(self.modes) - 1)


@dataclass(frozen=True)
class SeriesConfig:
    """Boundary ratio plus truncation policy for series evaluation."""

    r: float
    truncation: SummationControl = DEFAULT_CONTROL

    def __post_init__(self):
        validate_ratio(self.r)


def empirical_transforms(samples, N: int) -> EmpiricalTransforms:
    """Transforms of the empirical measure of a sample, modes 0..N.

    c0[n], s0[n], s1[n], c1[n] are sample means of cos(k_n X), sin(k_n X),
    X sin(k_n X) and X cos(k_n X); all are bounded by one in absolute value,
    c0[0] = 1 and c1[0] is the sample mean.
    """
    samples = SampleSet.coerce(samples)
    if N < 0:
        raise ValueError("mode count N must be non-negative")
    k = 2.0 * math.pi * np.arange(N + 1)

    c0 = np.zeros(N + 1)
    s0 = np.zeros(N + 1)
    s1 = np.zeros(N + 1)
    c1 = np.zeros(N + 1)
    vals = samples.values
    for start in range(0, vals.size, _TRANSFORM_CHUNK):
        block = vals[start : start + _TRANSFORM_CHUNK]
        phase = k[:, None] * block[None, :]
        c = np.cos(phase)
        s = np.sin(phase)
        c0 += c.sum(axis=1)
        s0 += s.sum(axis=1)
        s1 += (s * block[None, :]).sum(axis=1)
        c1 += c @ block
    n = samples.n
    return EmpiricalTransforms(
        modes=k, c0=c0 / n, s0=s0 / n, s1=s1 / n, n_samples=n, c1=c1 / n
    )


def transforms_from_functions(
    c0: Callable[[np.ndarray], np.ndarray],
    s0: Callable[[np.ndarray], np.ndarray],
    s1: Callable[[np.ndarray], np.ndarray],
    N: int,
) -> EmpiricalTransforms:
    """Transforms supplied in closed form for analytic initial data.

    Each callable receives the mode frequencies k_n = 2 pi n (an array,
    including k_0 = 0) and returns the corresponding transform values; no
    numeric quadrature of the initial data is performed.
    """
    if N < 0:
        raise ValueError("mode count N must be non-negative")
    k = 2.0 * math.pi * np.arange(N + 1)
    return EmpiricalTransforms(
        modes=k,
        c0=np.asarray(c0(k), dtype=float),
        s0=np.asarray(s0(k), dtype=float),
        s1=np.asarray(s1(k), dtype=float),
        n_samples=0,
    )


def point_mass_transforms(y: float, N: int) -> EmpiricalTransforms:
    """Transforms of a unit point mass at y; the series then evaluates the kernel."""
    return empirical_transforms(SampleSet(np.array([y])), N)


def truncation_bound(
    t: float, tol: float, max_terms: int = DEFAULT_CONTROL.max_terms
) -> int:
    """Smallest N with (1 + k_N t) exp(-k_N^2 t / 2) * envelope < tol.

    Monotone non-increasing in t; grows like 1/sqrt(t) as t shrinks.
    """
    t = validate_time(t)
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    for n in range(1, max_terms + 1):
        if _tail_envelope(n, t) < tol:
            return n
    raise TruncationError(
        f"series envelope above tol={tol} after {max_terms} modes (t={t})"
    )


def _tail_envelope(n: int, t: float) -> float:
    k = 2.0 * math.pi * n
    return (1.0 + k * t) * math.exp(-0.5 * k * k * t) * COEFFICIENT_ENVELOPE


def _series_coefficients(tr: EmpiricalTransforms, cfg: SeriesConfig, t: float):
    """Per-mode decay and coefficients of the series at time t, modes 1..N.

    Returns ``(decay, c_coef, sin_coef)`` with decay = exp(-k^2 t / 2),
    c_coef = c0 and sin_coef = s0 - (1-r) s1 - k t (1-r) c0, so that

        f(x, t) = 2/(1+r) c0(0) lin(x)
                  + 4/(1+r) sum_n decay_n [c_coef_n cos(k_n x) lin(x)
                                           + sin_coef_n sin(k_n x)]

    with lin(x) = r + (1-r) x. Raises TruncationError when the transforms
    carry too few modes for the requested time and tolerance.
    """
    t = validate_time(t)
    r = cfg.r
    tol = cfg.truncation.tol
    N = tr.n_modes
    if N < 1 or _tail_envelope(N, t) >= tol:
        raise TruncationError(
            f"transforms carry N={N} modes; envelope at N is not below tol={tol} "
            f"for t={t} (need N >= {_needed_modes(t, tol, cfg.truncation.max_terms)})"
        )
    k = tr.modes[1:]
    decay = np.exp(-0.5 * k * k * t)
    c_coef = tr.c0[1:]
    sin_coef = tr.s0[1:] - (1.0 - r) * tr.s1[1:] - k * t * (1.0 - r) * c_coef
    return decay, c_coef, sin_coef


def eval_series_solution(tr: EmpiricalTransforms, cfg: SeriesConfig, t: float, x):
    """Evaluate the series solution at points x in [0, 1].

    Points are processed in blocks of fixed size, so the mode-by-point
    temporaries stay bounded however many points are asked for. Raises
    TruncationError when the transforms carry too few modes for the
    requested time and tolerance (see :func:`truncation_bound`).
    """
    decay, c_coef, sin_coef = _series_coefficients(tr, cfg, t)
    r = cfg.r

    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if x_arr.size and (x_arr.min() < 0.0 or x_arr.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")

    k = tr.modes[1:]
    out = np.empty(x_arr.shape)
    for start in range(0, x_arr.size, _TRANSFORM_CHUNK):
        block = x_arr[start : start + _TRANSFORM_CHUNK]
        lin = r + (1.0 - r) * block
        phase = np.outer(k, block)
        series = c_coef[:, None] * np.cos(phase) * lin[None, :] + sin_coef[:, None] * np.sin(phase)
        stationary = (2.0 / (1.0 + r)) * tr.c0[0] * lin
        out[start : start + _TRANSFORM_CHUNK] = stationary + (4.0 / (1.0 + r)) * (decay[:, None] * series).sum(axis=0)

    return float(out[0]) if scalar else out


def _needed_modes(t: float, tol: float, max_terms: int) -> int:
    try:
        return truncation_bound(t, tol, max_terms)
    except TruncationError:
        return max_terms
