"""Discrete/binned estimator: four-corners matrix, time stepping, spectra.

The interval is discretized by m interior nodes ``x_i = i h`` with
``h = 1/(m+1)``. The boundary nodes are *defined* from the interior through
the linked boundary conditions (ghost nodes), which eliminates them from the
update and leaves an m x m operator A that is a rank-one perturbation of the
second-difference tridiagonal: ``A = T + w (e_1 + e_m)^T`` with

    w = -((1-q)/2, 0, ..., 0, (1+q)/2)^T = (-r/(r+1), 0, ..., 0, -1/(r+1))^T,  q = (1-r)/(1+r).

A has zero column sums (mass is conserved), non-positive off-diagonal
entries, and positive diagonal, so backward Euler with ``dt = 2 h^2`` is a
discrete-time Markov step. All eigenvalues are real, exactly one is zero,
and explicit angle formulas enumerate the spectrum for every r >= 0.

The left eigenvectors have closed forms too, and both families are sines
and cosines at angles 2 pi k/m and 2 pi k/(m+1). So a function of A is
applied mode by mode through real FFTs of lengths m and m+1 (numpy.fft),
in O(m log m) with no m x m array: exp(-sA) for the propagator, and
(I + aA)^{-1} (I + A)^{-n} for n backward Euler steps and a shortened
last one, with no step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import SampleSet, _q_weights, validate_ratio, validate_time


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


@dataclass(frozen=True, eq=False)
class BinnedDensity:
    """Interior node values of a binned density; ghosts are always derived."""

    grid: BinnedGrid
    interior: np.ndarray
    r: float

    def __post_init__(self):
        vals = np.asarray(self.interior, dtype=float)
        if vals.shape != (self.grid.m,):
            raise ValueError("interior values must have shape (m,)")
        object.__setattr__(self, "interior", vals)
        validate_ratio(self.r)

    def with_boundary(self) -> tuple[np.ndarray, np.ndarray]:
        """Full node positions and values including the derived ghosts (:func:`ghost_values`)."""
        u0, um1 = ghost_values(self.interior[0], self.interior[-1], self.r)
        x = np.arange(self.grid.m + 2) * self.grid.h
        u = np.concatenate(([u0], self.interior, [um1]))
        return x, u


@dataclass(frozen=True, eq=False)
class FourCornersMatrix:
    """m x m operator A = T + w (e_1 + e_m)^T; T is tridiag(-1, 2, -1)."""

    m: int
    r: float
    w: np.ndarray

    def to_dense(self) -> np.ndarray:
        a = 2.0 * np.eye(self.m) - np.eye(self.m, k=-1) - np.eye(self.m, k=1)
        a[:, 0] += self.w
        a[:, -1] += self.w
        return a

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = 2.0 * v
        out[:-1] -= v[1:]
        out[1:] -= v[:-1]
        return out + self.w * (v[0] + v[-1])


def build_four_corners(m: int, r: float) -> FourCornersMatrix:
    """Assemble the four-corners matrix for m interior nodes and ratio r.

    Every column sums to zero; interior rows carry the (-1, 2, -1) stencil
    and the corner entries come from ghost-node elimination.
    """
    if m < 2:
        raise ValueError(f"need at least two interior nodes, got m={m}")
    r = validate_ratio(r)
    _, one_minus_q, one_plus_q = _q_weights(r)
    w = np.zeros(m)
    w[0], w[-1] = -0.5 * one_minus_q, -0.5 * one_plus_q
    return FourCornersMatrix(m=m, r=r, w=w)


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
    return BinnedDensity(grid=grid, interior=interior, r=r)


def backward_euler_evolve(u: BinnedDensity, T: float) -> BinnedDensity:
    """Evolve a binned density to total time T by backward Euler steps.

    Full steps use dt = 2 h^2, and one last step of a dt, a = dt_last/dt
    in (0, 1], makes the total time exactly T. The n full steps and the
    last one are the rational function (I + a A)^{-1} (I + A)^{-n} of A,
    applied as the per-mode multiplier exp(-n log1p(lambda))/(1 + a lambda)
    through A's closed-form eigenvectors by real FFTs: O(m log m) for any
    T, with no step loop. lambda is computed as 4 sin^2(theta/2), which
    keeps its relative accuracy at small angles. Interior sums are
    conserved to round-off. A T whose step count T / dt overflows gives
    the stationary profile, as any T past about 19 (m + 1)^2 steps does.

    I + alpha A is an M-matrix, so its inverse is entrywise non-negative
    and so is the exact result for non-negative data. For such data only,
    the round-off negatives the FFTs leave (below 1e-13 of the peak) are
    set to zero and the values rescaled to the input's sum, so
    non-negative data stays exactly non-negative.
    """
    T = validate_time(T)
    dt = u.grid.dt

    ratio = T / dt
    if math.isinf(ratio):
        # every mode but the stationary one is 0, as where exp(-n lambda) underflows
        steps = np.zeros_like
    else:
        n_full = max(int(math.ceil(ratio)) - 1, 0)
        dt_last = T - n_full * dt
        if dt_last <= 0.0:  # fp guard when T is an exact multiple of dt
            n_full -= 1
            dt_last = T - n_full * dt
        a = dt_last / dt

        def steps(theta):
            lam = 4.0 * np.sin(0.5 * theta) ** 2
            return np.exp(-n_full * np.log1p(lam)) / (1.0 + a * lam)

    vals = u.interior
    out = _spectral_apply(u, steps)
    if vals.min() >= 0.0 and out.min() < 0.0:
        np.maximum(out, 0.0, out=out)
        out *= vals.sum() / out.sum()
    return BinnedDensity(grid=u.grid, interior=out, r=u.r)


def matrix_exponential_evolve(u: BinnedDensity, t: float) -> BinnedDensity:
    """Evolve a binned density by u(t) = exp(-t/(2 h^2) A) u(0).

    The propagator is the per-mode multiplier exp(-s lambda), s = t/(2 h^2),
    applied by real FFTs through A's closed-form eigenvectors in
    O(m log m), with no m x m array.
    """
    t = validate_time(t)
    s = t / (2.0 * u.grid.h * u.grid.h)
    out = _spectral_apply(u, lambda theta: np.exp(-s * (2.0 - 2.0 * np.cos(theta))))
    return BinnedDensity(grid=u.grid, interior=out, r=u.r)


def _spectral_apply(u: BinnedDensity, multiplier) -> np.ndarray:
    """f(A) u for f given per mode as ``multiplier(theta)``, with f = 1 at theta = 0.

    f is applied through closed-form right eigenvectors v and left
    eigenvectors y (the eigenvectors of A^T, whose ghost rows are
    y_0 = y_{m+1} = (r y_1 + y_m)/(r+1)) for every r >= 0. With
    q = (1-r)/(1+r):

    * first class, theta = 2 pi k/m: v_j = ((1-q) sin((j-1) theta)
      - (1+q) sin(j theta))/2, y_j = cos((j-1/2) theta),
      y^T v = -(m/2) sin(theta/2);
    * second class, theta = 2 pi k/(m+1): v_j = sin(j theta),
      y_j = (1+q) cos((j+1/2) theta) - (1-q) cos((j-1/2) theta),
      y^T v = -(m+1) sin(theta/2);
    * theta = 0: y is all ones and v is :func:`_stationary_vector`.

    The projections y^T u are one real FFT of u (length m) and one of
    [0, u] (length m+1), each with a half-node phase; the synthesis is one
    inverse real FFT of each length, the sin((j-1) theta) sum being the
    length-m output shifted by one node. The cost is O(m log m) and no
    m x m array is formed.
    """
    m = u.grid.m
    q = _q_weights(u.r)[0]
    vals = u.interior
    split = (m - 1) // 2

    stationary = _stationary_vector(m, q)
    out = (vals.sum() / stationary.sum()) * stationary
    first = _decayed_sines(vals, split, multiplier, 1.0)
    out += 0.5 * (1.0 - q) * first
    out -= 0.5 * (1.0 + q) * np.roll(first, -1)
    out += _decayed_sines(np.concatenate(([0.0], vals)), m - 1 - split, multiplier, q)[1:]
    return out


def _stationary_vector(m: int, q: float) -> np.ndarray:
    """Zero mode 1 + q/(m - (m-1)(1+q)/2) (j-1), j = 1..m: slope (1-r)/(1+r m), its denominator in [1, m]."""
    return 1.0 + q / (m - 0.5 * (m - 1) * (1.0 + q)) * np.arange(m)


def _decayed_sines(data: np.ndarray, modes: int, multiplier, cos_weight: float) -> np.ndarray:
    """Nodes 0..n-1 of sum_k c_k sin(j theta_k), theta_k = 2 pi k/n, k = 1..modes.

    n is the length of ``data``, and c_k is ``multiplier(theta_k)`` times the
    class's left projection of ``data`` over y^T v. With F_k = a + ib the
    k-th real-FFT coefficient, that projection is proportional to
    ``cos_weight * a cos(theta/2) + b sin(theta/2)``, and dividing by
    y^T v leaves the inverse-FFT coefficient i (cos_weight a cot(theta/2) + b).
    """
    n = data.size
    coeff = np.fft.rfft(data)
    theta = np.arange(1, modes + 1) * (2.0 * math.pi / n)
    band = coeff[1 : modes + 1]
    decayed = 1j * multiplier(theta) * (
        cos_weight * band.real / np.tan(0.5 * theta) + band.imag
    )
    coeff[:] = 0.0
    coeff[1 : modes + 1] = decayed
    return np.fft.irfft(coeff, n)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Exact eigendata of the four-corners matrix for any r >= 0.

    Angles follow the two-class rule (denominators m and m+1); eigenvalues are 2 - 2 cos(theta),
    all real, with exactly one zero, whose eigenvector is :func:`_stationary_vector`. ``vectors``
    holds the eigenvectors as columns, ordered as the eigenvalues, bounded for any finite r: the
    first class is r sin((j-1) theta) - sin(j theta) over 1 + r.
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

    def residuals(self) -> np.ndarray:
        """Relative inf-norm residuals ||A v - lambda v|| / ||v|| per pair, A = build_four_corners(m, r)."""
        a = build_four_corners(self.m, self.r)
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

    vectors = np.arange(1, m + 1)[:, None] * angles
    np.sin(vectors, out=vectors)
    q, one_minus_q, one_plus_q = _q_weights(r)
    # sin((j-1) theta) is the row above (the same float product), and sin(0) = 0 in the first row.
    first = vectors[:, :split]
    above = (0.5 * one_minus_q) * first[:-1]
    first *= -0.5 * one_plus_q
    first[1:] += above
    vectors[:, zero_index] = _stationary_vector(m, q)
    return SpectralData(
        m=m, r=r, angles=angles, eigenvalues=eigenvalues, vectors=vectors,
        zero_index=zero_index,
    )
