"""Discrete/binned estimator: four-corners matrix, time stepping, spectra.

The interval is discretized by m interior nodes ``x_i = i h`` with
``h = 1/(m+1)``. The boundary nodes are *defined* from the interior through
the linked boundary conditions (ghost nodes), which eliminates them from the
update and leaves an m x m operator A that is a rank-one perturbation of the
second-difference tridiagonal: ``A = T + w (e_1 + e_m)^T`` with

    w = (-r/(r+1), 0, ..., 0, -1/(r+1))^T.

A has zero column sums (mass is conserved), non-positive off-diagonal
entries, and positive diagonal, so backward Euler with ``dt = 2 h^2`` is a
discrete-time Markov step. All eigenvalues are real, exactly one is zero,
and explicit angle formulas enumerate the spectrum for every r >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .types import SampleSet, validate_ratio, validate_time


@dataclass(frozen=True)
class BinnedGrid:
    """Uniform grid with m interior nodes; h and dt are derived exactly."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least two interior nodes, got m={self.m}")

    @property
    def h(self) -> float:
        return 1.0 / (self.m + 1)

    @property
    def dt(self) -> float:
        return 2.0 * self.h * self.h

    @property
    def interior_x(self) -> np.ndarray:
        """Positions of the interior nodes, i h for i = 1..m."""
        return np.arange(1, self.m + 1) * self.h


@dataclass(frozen=True)
class BinnedDensity:
    """Interior node values of a binned density; ghosts are always derived."""

    grid: BinnedGrid
    interior: np.ndarray
    r: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.interior, dtype=float)
        if vals.shape != (self.grid.m,):
            raise ValueError("interior values must have shape (m,)")
        object.__setattr__(self, "interior", vals)
        validate_ratio(self.r)

    def ghosts(self) -> tuple[float, float]:
        """Derived boundary values (u_0, u_{m+1})."""
        return ghost_values(self.interior[0], self.interior[-1], self.r)

    def with_boundary(self) -> tuple[np.ndarray, np.ndarray]:
        """Full node positions and values including the derived ghosts."""
        u0, um1 = self.ghosts()
        x = np.arange(self.grid.m + 2) * self.grid.h
        u = np.concatenate(([u0], self.interior, [um1]))
        return x, u


@dataclass(frozen=True)
class FourCornersMatrix:
    """m x m operator A = T + w (e_1 + e_m)^T; T is tridiag(-1, 2, -1)."""

    m: int
    r: float
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    w: np.ndarray

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag) + np.diag(self.sub, -1) + np.diag(self.sup, 1)
        a[:, 0] += self.w
        a[:, -1] += self.w
        return a

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = self.diag * v
        out[:-1] += self.sup * v[1:]
        out[1:] += self.sub * v[:-1]
        return out + self.w * (v[0] + v[-1])

    def trace(self) -> float:
        return float(self.diag.sum() + self.w[0] + self.w[-1])


def build_four_corners(m: int, r: float) -> FourCornersMatrix:
    """Assemble the four-corners matrix for m interior nodes and ratio r.

    Every column sums to zero; interior rows carry the (-1, 2, -1) stencil
    and the corner entries come from ghost-node elimination.
    """
    if m < 2:
        raise ValueError(f"need at least two interior nodes, got m={m}")
    r = validate_ratio(r)
    w = np.zeros(m)
    w[0] = -r / (r + 1.0)
    w[-1] = -1.0 / (r + 1.0)
    return FourCornersMatrix(
        m=m,
        r=r,
        sub=-np.ones(m - 1),
        diag=2.0 * np.ones(m),
        sup=-np.ones(m - 1),
        w=w,
    )


def ghost_values(u1: float, um: float, r: float) -> tuple[float, float]:
    """Boundary node values defined by the linked conditions.

    u_{m+1} = (u_1 + u_m)/(r+1) and u_0 = r u_{m+1}; the identity
    u_0 = r u_{m+1} holds exactly in floating point by construction.
    """
    r = validate_ratio(r)
    um1 = (float(u1) + float(um)) / (r + 1.0)
    return (r * um1, um1)


def bin_samples(samples, m: int, r: float = 1.0) -> BinnedDensity:
    """Linearly bin samples onto the interior nodes at density scale.

    Each sample splits weight 1/(n h) between its two nearest nodes in
    proportion to proximity; weight landing on a boundary node is folded
    onto the adjacent interior node (boundary values are derived, never
    independent unknowns). The interior sum is 1/h, so the discrete mass
    h * sum(interior) is exactly one. The ratio r is carried along for the
    evolution operators.
    """
    samples = SampleSet.coerce(samples)
    r = validate_ratio(r)
    grid = BinnedGrid(m)
    scaled = samples.values * (m + 1)  # position in units of h, range [0, m+1]
    left = np.floor(scaled).astype(int)
    frac = scaled - left

    weights = np.zeros(m + 2)
    np.add.at(weights, left, 1.0 - frac)
    np.add.at(weights, np.minimum(left + 1, m + 1), frac)
    weights[1] += weights[0]
    weights[m] += weights[m + 1]
    interior = weights[1 : m + 1] / (samples.n * grid.h)
    return BinnedDensity(grid=grid, interior=interior, r=r, meta={})


def _factor_shifted(grid: BinnedGrid, r: float, alpha: float):
    """Cholesky factor of I + alpha*T plus the Sherman-Morrison data for the corners."""
    m = grid.m
    ab = np.empty((2, m))
    ab[0] = 1.0 + 2.0 * alpha
    ab[1] = -alpha
    cb = cholesky_banded(ab, lower=True)

    w = np.zeros(m)
    w[0] = -alpha * r / (r + 1.0)
    w[-1] = -alpha / (r + 1.0)
    p = cho_solve_banded((cb, True), w)
    denom = 1.0 + p[0] + p[-1]
    # Columns of I + alpha*A sum to one, so the corrected system is never
    # singular for r >= 0.
    assert abs(denom) > 1e-12, "singular Sherman-Morrison correction"
    return cb, p, denom


def _sm_solve(cb, p, denom, u: np.ndarray) -> np.ndarray:
    q = cho_solve_banded((cb, True), u)
    return q - p * ((q[0] + q[-1]) / denom)


def backward_euler_evolve(u: BinnedDensity, T: float) -> BinnedDensity:
    """Evolve a binned density to total time T by backward Euler steps.

    Full steps use dt = 2 h^2; the final step is shortened so the total
    time is exactly T. Each solve costs O(m) via a banded Cholesky
    factorization plus a rank-one Sherman-Morrison correction. Interior
    sums are conserved and non-negativity is preserved.
    """
    T = validate_time(T)
    r = u.r
    grid = u.grid
    dt = grid.dt

    n_full = max(int(math.ceil(T / dt)) - 1, 0)
    dt_last = T - n_full * dt
    if dt_last <= 0.0:  # fp guard when T is an exact multiple of dt
        n_full -= 1
        dt_last = T - n_full * dt

    vals = u.interior.copy()
    if n_full > 0:
        cb, p, denom = _factor_shifted(grid, r, 1.0)
        for _ in range(n_full):
            vals = _sm_solve(cb, p, denom, vals)
    cb, p, denom = _factor_shifted(grid, r, dt_last / dt)
    vals = _sm_solve(cb, p, denom, vals)
    return BinnedDensity(grid=grid, interior=vals, r=r, meta=dict(u.meta))


def matrix_exponential_evolve(u: BinnedDensity, t: float) -> BinnedDensity:
    """Evolve a binned density by u(t) = exp(-t/(2 h^2) A) u(0).

    The propagator is applied through the explicit spectral decomposition
    for every r >= 0. The eigenvector basis, each column scaled to unit
    max-norm, has condition number below m, so one dense solve for the
    mode coefficients is accurate.
    """
    t = validate_time(t)
    grid = u.grid
    s = t / (2.0 * grid.h * grid.h)
    sd = spectral_data(grid.m, u.r)
    basis = sd.vectors / np.abs(sd.vectors).max(axis=0)
    coeff = np.linalg.solve(basis, u.interior)
    vals = basis @ (np.exp(-s * sd.eigenvalues) * coeff)
    meta = dict(u.meta, propagator="spectral")
    return BinnedDensity(grid=grid, interior=vals, r=u.r, meta=meta)


@dataclass(frozen=True)
class SpectralData:
    """Exact eigendata of the four-corners matrix for any r >= 0.

    Angles follow the two-class rule (denominators m and m+1); eigenvalues
    are 2 - 2 cos(theta), all real, with exactly one zero whose eigenvector
    is the equally-spaced stationary vector w0_j = 1 + (1-r)/(1+rm) (j-1).
    ``vectors`` holds the raw formula eigenvectors as columns, ordered as
    the eigenvalues.
    """

    m: int
    r: float
    angles: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    zero_index: int

    @property
    def stationary(self) -> np.ndarray:
        return self.vectors[:, self.zero_index]

    def residuals(self, matrix: FourCornersMatrix | None = None) -> np.ndarray:
        """Relative inf-norm residuals ||A v - lambda v|| / ||v|| per pair."""
        a = matrix if matrix is not None else build_four_corners(self.m, self.r)
        out = np.empty(self.m)
        for i in range(self.m):
            v = self.vectors[:, i]
            out[i] = np.abs(a.matvec(v) - self.eigenvalues[i] * v).max() / np.abs(v).max()
        return out


def spectral_data(m: int, r: float) -> SpectralData:
    """Explicit eigenvalues and eigenvectors of the four-corners matrix.

    The same two-class formulas hold for every r >= 0, r = 1 included.
    """
    if m < 2:
        raise ValueError(f"need at least two interior nodes, got m={m}")
    r = validate_ratio(r)

    split = (m - 1) // 2
    k = np.arange(1, m + 1)
    angles = np.where(
        k <= split,
        k * (2.0 * math.pi / m),
        (k - split - 1) * (2.0 * math.pi / (m + 1)),
    )
    eigenvalues = 2.0 - 2.0 * np.cos(angles)
    zero_index = split  # k = split + 1 gives theta = 0
    eigenvalues[zero_index] = 0.0

    j = np.arange(1, m + 1)
    vectors = np.empty((m, m))
    for i in range(m):
        theta = angles[i]
        if i < split:
            vectors[:, i] = r * np.sin((j - 1) * theta) - np.sin(j * theta)
        elif i == zero_index:
            vectors[:, i] = 1.0 + (1.0 - r) / (1.0 + r * m) * (j - 1)
        else:
            vectors[:, i] = np.sin(j * theta)
    return SpectralData(
        m=m, r=r, angles=angles, eigenvalues=eigenvalues, vectors=vectors,
        zero_index=zero_index,
    )
