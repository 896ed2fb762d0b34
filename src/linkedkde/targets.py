"""Synthetic target densities on [0, 1] and inverse-CDF sampling.

Samples invert the target's CDF by safeguarded Newton steps from a table
of CDF values, so a draw costs a few passes of the CDF and the pdf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bandwidth import TargetDensityInfo
from .types import SampleSet

_MONOTONE_PROBE = 1001
# A sample stops stepping once |F(x) - u| is this small, about the CDF's round-off.
_RESIDUAL_TOL = 2.0**-52
# Each step evaluates the CDF and the pdf once: 48 passes at most.
_NEWTON_STEPS = 24
# Entries of the guide table that starts each uniform's bracket search.
_GUIDE_CELLS = 4096


@dataclass(frozen=True)
class SyntheticTarget:
    """Analytic density/CDF pair with the facts the oracle rules need.

    ``pdf`` must be the derivative of ``cdf``: :func:`sample_synthetic`
    takes Newton steps ``(F(x) - u) / f(x)``, and with any other pdf (one
    off by a constant factor, say) they converge only linearly and may stop
    at the step cap well short of the CDF's round-off.
    """

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    info: TargetDensityInfo


def beta_mixture(a: float) -> SyntheticTarget:
    """Mixture (b(1,2;x) + 2 b(a,1;x)) / 3 of Beta densities, a >= 1.

    b(1,2;x) = 2(1-x) and b(a,1;x) = a x^{a-1}; the parameter a controls the
    smoothness near x = 0. At a = 2 the density is the straight line
    (2 + 2x)/3 with boundary ratio 1/2 and matching derivatives.
    """
    a = float(a)
    if not 1.0 <= a < math.inf:
        raise ValueError(f"shape parameter a must be finite and >= 1, got {a}")

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return (2.0 * (1.0 - x) + 2.0 * a * x ** (a - 1.0)) / 3.0

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return (2.0 * x - x * x + 2.0 * x ** a) / 3.0

    # f'(x) = (-2 + 2a(a-1) x^{a-2})/3; the x^{a-2} factor at x = 0 is 0 for
    # a > 2, 1 at a = 2, and divergent in between (the a = 1 term is constant).
    if a == 1.0 or a > 2.0:
        fp0 = -2.0 / 3.0
    elif a == 2.0:
        fp0 = 2.0 / 3.0
    else:
        fp0 = math.inf
    fp1 = (-2.0 + 2.0 * a * (a - 1.0)) / 3.0
    if a in (1.0, 2.0):
        curvature = 0.0
    elif a > 2.5:
        curvature = (2.0 * a * (a - 1.0) * (a - 2.0) / 3.0) ** 2 / (2.0 * a - 5.0)
    else:
        curvature = math.inf
    r_true = 2.0 if a == 1.0 else 1.0 / a
    info = TargetDensityInfo(
        f_second_norm_sq=curvature, fprime0=fp0, fprime1=fp1, r_true=r_true
    )
    return SyntheticTarget(name=f"beta_mixture:a={a:g}", pdf=pdf, cdf=cdf, info=info)


def cosine_bump(amplitude: float) -> SyntheticTarget:
    """Density 1 + amplitude * cos(2 pi x): periodic, matching derivatives, r = 1."""
    amp = float(amplitude)
    if not (0.0 <= amp < 1.0):
        raise ValueError("amplitude must lie in [0, 1) for positivity")

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + amp * np.cos(2.0 * math.pi * x)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return x + amp * np.sin(2.0 * math.pi * x) / (2.0 * math.pi)

    info = TargetDensityInfo(
        f_second_norm_sq=8.0 * math.pi ** 4 * amp * amp,
        fprime0=0.0,
        fprime1=0.0,
        r_true=1.0,
    )
    return SyntheticTarget(name=f"cosine_bump:amp={amp:g}", pdf=pdf, cdf=cdf, info=info)


def parabolic() -> SyntheticTarget:
    """Density 6/11 (-2x^2 + x + 2): boundary ratio 2, non-matching derivatives."""

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return (6.0 / 11.0) * (-2.0 * x * x + x + 2.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return (6.0 / 11.0) * (-2.0 * x ** 3 / 3.0 + x * x / 2.0 + 2.0 * x)

    info = TargetDensityInfo(
        f_second_norm_sq=(24.0 / 11.0) ** 2,
        fprime0=6.0 / 11.0,
        fprime1=-18.0 / 11.0,
        r_true=2.0,
    )
    return SyntheticTarget(name="parabolic", pdf=pdf, cdf=cdf, info=info)


_TRIMODAL_WEIGHTS = (0.1, 0.3, 0.3, 0.3)
_TRIMODAL_SHAPES = ((20.0, 50.0), (45.0, 45.0), (50.0, 20.0))
# Gauss-Legendre nodes for ||f''||^2 of the trimodal target: f'' is a
# polynomial of degree 86, and 100 nodes integrate its square (172) exactly.
_TRIMODAL_NODES = 100


def _beta_pdf(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Beta(a, b) density x^(a-1) (1-x)^(b-1) / B(a, b) at x in [0, 1]."""
    from scipy.special import beta

    return x ** (a - 1.0) * (1.0 - x) ** (b - 1.0) / beta(a, b)


def trimodal() -> SyntheticTarget:
    """Three Beta bumps over a thin uniform floor; modes near 0.28, 0.5, 0.72.

    A custom-coefficient stand-in for a trimodal shape: the uniform floor
    keeps the endpoint values positive and equal (r = 1), and every bump
    vanishes to second order at the boundary. It is the one target that
    loads ``scipy.special``, on the call.
    """
    from scipy.special import betainc, roots_legendre

    def pdf(x):
        x = np.asarray(x, dtype=float)
        out = _TRIMODAL_WEIGHTS[0] * np.ones_like(x)
        for w, (al, be) in zip(_TRIMODAL_WEIGHTS[1:], _TRIMODAL_SHAPES):
            out = out + w * _beta_pdf(x, al, be)
        return out

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = _TRIMODAL_WEIGHTS[0] * x
        for w, (al, be) in zip(_TRIMODAL_WEIGHTS[1:], _TRIMODAL_SHAPES):
            out = out + w * betainc(al, be, x)
        return out

    def second_derivative(x):
        out = 0.0
        for w, (al, be) in zip(_TRIMODAL_WEIGHTS[1:], _TRIMODAL_SHAPES):
            p = _beta_pdf(x, al, be)
            lp = (al - 1.0) / x - (be - 1.0) / (1.0 - x)
            lpp = -(al - 1.0) / x**2 - (be - 1.0) / (1.0 - x) ** 2
            out += w * p * (lp * lp + lpp)
        return out

    nodes, weights = roots_legendre(_TRIMODAL_NODES)
    curvature = float(0.5 * weights @ second_derivative(0.5 * (nodes + 1.0)) ** 2)
    info = TargetDensityInfo(
        f_second_norm_sq=curvature, fprime0=0.0, fprime1=0.0, r_true=1.0
    )
    return SyntheticTarget(name="trimodal", pdf=pdf, cdf=cdf, info=info)


# The parameters each target kind takes, with their defaults.
_TARGET_DEFAULTS = {"beta_mixture": {"a": 2.0}, "cosine_bump": {"amp": 0.5}, "parabolic": {}, "trimodal": {}}


def parse_target(spec: str) -> SyntheticTarget:
    """Parse CLI target descriptions like ``beta_mixture:a=2`` or ``parabolic``.

    A parameter the target does not take, or one given twice, is a
    ValueError that names it.
    """
    kind, _, args = spec.partition(":")
    params = {}
    repeated = []
    if args:
        for item in args.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed target parameter {item!r}")
            key = key.strip()
            if key in params and key not in repeated:
                repeated.append(key)
            params[key] = float(value)
    if kind not in _TARGET_DEFAULTS:
        raise ValueError(f"unknown target kind {kind!r}")
    known = _TARGET_DEFAULTS[kind]
    problems = [f"unknown parameter {key!r}" for key in params if key not in known]
    problems += [f"repeated parameter {key!r}" for key in repeated]
    if problems:
        takes = ", ".join(map(repr, known)) or "no parameters"
        raise ValueError(f"target {kind!r} takes {takes}: " + "; ".join(problems))
    params = {**known, **params}
    if kind == "beta_mixture":
        return beta_mixture(params["a"])
    if kind == "cosine_bump":
        return cosine_bump(params["amp"])
    return parabolic() if kind == "parabolic" else trimodal()


def _bracket_cells(probe: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(probe, u, side="right") - 1`` for a non-decreasing probe, by a guide table.

    The indexed search of Chen and Asau (1974): the table holds that cell
    for each of the keys j / 4096, so u starts from the entry of
    floor(4096 u), at or below its own cell, and walks forward while the
    next probe value is at most u. Smooth targets take at most a few steps.
    """
    table = np.searchsorted(probe, np.arange(_GUIDE_CELLS) / _GUIDE_CELLS, side="right") - 1
    cell = table[(u * _GUIDE_CELLS).astype(np.intp)]
    ahead = np.append(probe, np.inf)  # ahead[cell + 1] is the next probe value; none past the last
    step = ahead[cell + 1] <= u
    while step.any():
        cell += step
        step = ahead[cell + 1] <= u
    return cell


def sample_synthetic(target: SyntheticTarget, n: int, seed: int) -> SampleSet:
    """Draw n samples by inverting the CDF with safeguarded Newton steps.

    The uniforms are ``default_rng(seed).random(n)``, and each is inverted
    on its own, so the draw at n is a prefix of the draw at any larger n
    with the same seed. The CDF values on the 1001-point probe grid, which
    also guard against a non-monotone CDF evaluator, are a bracket table:
    each u is bracketed by its cell of the grid, found from a guide table
    of 4096 entries (see :func:`_bracket_cells`), and started from linear
    interpolation inside it. A step is
    ``x -= (F(x) - u) / f(x)``, with ``f = target.pdf`` the derivative of
    the CDF, and the bracket kept on the sign of ``F(x) - u``; a step that is not finite or leaves the bracket takes the
    bracket's midpoint instead, so every target that passes the guard
    converges. A sample stops on its own test, when ``|F(x) - u| <= 2^-52``
    or when the step no longer moves x, and at most 24 steps are taken (48
    passes of the CDF and the pdf). On smooth targets a sample stops after
    three or four steps with ``|F(x) - u|`` at the round-off of the CDF
    evaluator; every sample lies in [0, 1]. While every sample is still
    stepping the arrays are stepped whole, with no index; from the first
    step at which some sample stops, the rest are gathered by one index
    array after each step that stops any (at n = 1e4 on ``parabolic`` the
    counts per step are 10000, 10000, 4932). The midpoint is formed only
    for a step that some sample takes outside its bracket.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    grid = np.linspace(0.0, 1.0, _MONOTONE_PROBE)
    probe = target.cdf(grid)
    if np.any(np.diff(probe) < -1e-12) or abs(probe[0]) > 1e-9 or abs(probe[-1] - 1.0) > 1e-9:
        raise ValueError(f"target {target.name!r} does not supply a monotone unit CDF")

    u = np.random.default_rng(seed).random(n)
    cell = np.minimum(np.maximum(_bracket_cells(probe, u), 0), probe.size - 2)
    lo, hi = grid[cell], grid[cell + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + (hi - lo) * ((u - probe[cell]) / (probe[cell + 1] - probe[cell]))
    x = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))

    out = np.empty(n)
    # The samples still stepping: the whole draw until one stops, then their indices.
    live = slice(None)
    for _ in range(_NEWTON_STEPS):
        residual = target.cdf(x) - u
        above = residual > 0.0
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = x - residual / target.pdf(x)
        inside = ((step > lo) & (step < hi)) | (step == x)
        if not inside.all():
            step = np.where(inside, step, 0.5 * (lo + hi))
        go = (np.abs(residual) > _RESIDUAL_TOL) & (step != x)
        if go.all():
            x = step
            continue
        out[live] = x
        keep = np.flatnonzero(go)  # one index array: four integer gathers beat four masked ones
        if not keep.size:
            break
        live = keep if isinstance(live, slice) else live[keep]
        x, u, lo, hi = step[keep], u[keep], lo[keep], hi[keep]
    else:
        out[live] = x
    return SampleSet(out)
