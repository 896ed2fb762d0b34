"""Generalized-eigenfunction series solution of the linked-boundary diffusion.

For initial data with cosine/sine transforms c0, s0, s1 the solution is

    f(x, t) = c0(0) l(x)
              + 2 sum_{n>=1} exp(-k_n^2 t / 2) *
                { c0(k_n) cos(k_n x) l(x) + b_n sin(k_n x) },
    b_n = (1+q) s0(k_n) - 2q [s1(k_n) + k_n t c0(k_n)],

with ``k_n = 2 pi n``, ``q = (1-r)/(1+r)`` in [-1, 1] and the stationary
profile ``l(x) = (1-q)(1-x) + (1+q) x = 2 (r + (1-r) x)/(1+r)``. The
``k_n t`` term is the non-separable contribution of the generalized
eigenfunctions; it vanishes identically at r = 1 (q = 0). Written in q,
every coefficient stays bounded however large r is.

This module is the spectral core behind ``estimate_density`` and LSCV, and
the oracle for the binned finite-difference solver; the kernel form
``eval_linked_kernel`` is its independent check.
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
# Elements per mode-by-point temporary; blocks shrink below _TRANSFORM_CHUNK once N > 255.
_ELEMENT_BUDGET = 2**20
# Modes per run of the transform recurrence before it restarts from a direct seed.
_RESEED_INTERVAL = 64
# Seed phases split each sample on this dyadic grid (see _seed_turns).
_PHASE_SPLIT = 2.0**26


def _block_size(n_modes: int) -> int:
    """Samples or points per block, so an (N+1) x block temporary stays in budget.

    A caller whose temporaries add up to R real rows per sample passes R - 1.
    """
    return max(1, min(_TRANSFORM_CHUNK, _ELEMENT_BUDGET // (n_modes + 1)))


@dataclass(frozen=True)
class EmpiricalTransforms:
    """Mode-indexed transforms of the initial data at k_n = 2 pi n, n = 0..N.

    ``c0``, ``s0`` and ``s1`` are the means of cos(k_n X), sin(k_n X) and
    X sin(k_n X); they fix the series solution at every time. ``c1``, the
    mean of X cos(k_n X), is carried only by empirical transforms: with
    ``c0`` and ``s0`` it gives the sample means of the estimate and of the
    diagonal kernel in closed form, which least-squares cross-validation
    needs. Transforms of analytic data leave it ``None``.
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

    They come from one complex recurrence: exp(i k_n X) is the previous
    mode times z = exp(2 pi i X), re-seeded from a directly computed
    exp(i k_m X) every 64 modes, so each mode carries the round-off of at
    most 63 products however large N is. Mode 64 g + j is seed_g z^j, which
    makes the sums over a block of samples one complex matrix product of
    the seeds (and the seeds times X) with the powers z^0..z^63. Seed
    phases are reduced to a fraction of a turn without rounding the integer
    part (see :func:`_seed_turns`), so the transforms are accurate to about
    1e-14 at any N, where cos and sin of k_n X lose about N * 1e-16.

    Samples are processed in blocks sized by :func:`_block_size` from the
    rows of the block temporaries, a complex row counting as two, so memory
    stays bounded however large N or the sample is.
    """
    samples = SampleSet.coerce(samples)
    if N < 0:
        raise ValueError("mode count N must be non-negative")
    powers = min(_RESEED_INTERVAL, N + 1)
    groups = -(-(N + 1) // powers)
    seed_modes = powers * np.arange(groups, dtype=float)

    # Row g sums seed_g z^j over the samples, row groups + g sums X seed_g z^j.
    sums = np.zeros((2 * groups, powers), dtype=complex)
    vals = samples.values
    # Real rows per sample of a block: 2 per seed for its turns and a temporary,
    # 4 per seed for the plain and weighted complex seeds, 2 per complex power.
    step = _block_size(6 * groups + 2 * powers - 1)
    for start in range(0, vals.size, step):
        block = vals[start : start + step]
        seeds = np.empty((2 * groups, block.size), dtype=complex)
        _unit_phasors(_seed_turns(seed_modes, block), out=seeds[:groups])
        np.multiply(seeds[:groups], block, out=seeds[groups:])
        pw = np.empty((powers, block.size), dtype=complex)
        pw[0] = 1.0
        if powers > 1:
            _unit_phasors(block - np.rint(block), out=pw[1])
            for j in range(2, powers):
                np.multiply(pw[j - 1], pw[1], out=pw[j])
        sums += seeds @ pw.T

    n = samples.n
    plain = sums[:groups].ravel()[: N + 1] / n
    weighted = sums[groups:].ravel()[: N + 1] / n
    return EmpiricalTransforms(
        modes=2.0 * math.pi * np.arange(N + 1),
        c0=plain.real,
        s0=plain.imag,
        s1=weighted.imag,
        n_samples=n,
        c1=weighted.real,
    )


def _seed_turns(seed_modes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x minus its nearest integer, for each seed mode m and sample x.

    x is split as hi + lo with hi on a 2^-26 grid, so m hi is exact for
    m < 2^27 and its integer part drops out without rounding; only the
    small m lo is rounded, so the result is good to about one ulp of a turn.
    """
    hi = np.rint(x * _PHASE_SPLIT) / _PHASE_SPLIT
    turns = np.multiply.outer(seed_modes, hi)
    turns -= np.rint(turns)
    turns += np.multiply.outer(seed_modes, x - hi)
    return turns


def _unit_phasors(turns: np.ndarray, out: np.ndarray) -> None:
    """Write exp(2 pi i turns) into the complex array out; turns is overwritten."""
    turns *= 2.0 * math.pi
    np.cos(turns, out=out.real)
    np.sin(turns, out=out.imag)


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


def _q_weights(r: float) -> tuple[float, float, float]:
    """``(q, 1-q, 1+q)`` for q = (1-r)/(1+r), with 1-q = 2r/(1+r) and
    1+q = 2/(1+r) formed without cancellation or overflow for any finite r."""
    one_plus_q = 2.0 / (1.0 + r)
    return (1.0 - r) / (1.0 + r), r * one_plus_q, one_plus_q


def _mode_weights(tr: EmpiricalTransforms, cfg: SeriesConfig, t: float):
    """Per-mode weights of the series at time t, modes 1..N.

    Returns ``(w_cos, w_sin)`` = 2 exp(-k^2 t / 2) * (c0, b) with
    b = (1+q) s0 - 2q (s1 + k t c0), so that

        f(x, t) = c0(0) l(x) + sum_n [w_cos_n cos(k_n x) l(x) + w_sin_n sin(k_n x)].

    Raises TruncationError when the transforms carry too few modes for the
    requested time and tolerance.
    """
    t = validate_time(t)
    tol = cfg.truncation.tol
    N = tr.n_modes
    if N < 1 or _tail_envelope(N, t) >= tol:
        raise TruncationError(
            f"transforms carry N={N} modes; envelope at N is not below tol={tol} "
            f"for t={t} (need N >= {_needed_modes(t, tol, cfg.truncation.max_terms)})"
        )
    q, _, one_plus_q = _q_weights(cfg.r)
    k = tr.modes[1:]
    c0 = tr.c0[1:]
    weight = 2.0 * np.exp(-0.5 * k * k * t)
    b = one_plus_q * tr.s0[1:] - 2.0 * q * (tr.s1[1:] + k * t * c0)
    return weight * c0, weight * b


def _mode_basis(r: float, n_modes: int, x: np.ndarray):
    """``(l, cos_l, sin)``: l(x), and cos(k_n x) l(x), sin(k_n x) as N x len(x) rows.

    Phases are reduced to a fraction of a turn before scaling by 2 pi, so
    sin(k_n x) is exactly zero at x = 0 and x = 1 and ``f(0) = r f(1)``
    survives the multiplication by a large r.
    """
    _, one_minus_q, one_plus_q = _q_weights(r)
    ell = one_minus_q * (1.0 - x) + one_plus_q * x
    turns = np.multiply.outer(np.arange(1.0, n_modes + 1.0), x)
    turns -= np.rint(turns)
    turns *= 2.0 * math.pi
    cos_ell = np.cos(turns)
    cos_ell *= ell
    return ell, cos_ell, np.sin(turns, out=turns)


def eval_series_solution(tr: EmpiricalTransforms, cfg: SeriesConfig, t: float, x):
    """Evaluate the series solution at points x in [0, 1].

    Points are processed in blocks sized by :func:`_block_size`, so the
    mode-by-point temporaries stay bounded however many points or modes are
    asked for. Finite for every finite r. Raises TruncationError when the
    transforms carry too few modes for the requested time and tolerance
    (see :func:`truncation_bound`).
    """
    w_cos, w_sin = _mode_weights(tr, cfg, t)

    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if x_arr.size and (x_arr.min() < 0.0 or x_arr.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")

    out = np.empty(x_arr.shape)
    step = _block_size(tr.n_modes)
    for start in range(0, x_arr.size, step):
        ell, cos_ell, sin = _mode_basis(cfg.r, tr.n_modes, x_arr[start : start + step])
        out[start : start + step] = tr.c0[0] * ell + w_cos @ cos_ell + w_sin @ sin

    return float(out[0]) if scalar else out


def _needed_modes(t: float, tol: float, max_terms: int) -> int:
    try:
        return truncation_bound(t, tol, max_terms)
    except TruncationError:
        return max_terms
