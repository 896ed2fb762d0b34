"""Shared containers and error types for the linked-boundary estimator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class TruncationError(RuntimeError):
    """A series tail could not be pushed below tolerance within the term cap."""


class DegenerateSampleError(ValueError):
    """The sample has no spread, so a data-driven bandwidth is undefined."""


class RatioEstimationError(RuntimeError):
    """No samples fell in the right boundary window; the ratio estimate is undefined.

    Carries ``left_count`` so a caller can decide on a fallback (e.g. r = 1).
    """

    def __init__(self, message: str, left_count: int):
        super().__init__(message)
        self.left_count = left_count


class FlatDensityError(ValueError):
    """Both curvature and the derivative gap vanish; no finite AMISE optimum exists."""


def validate_time(t: float) -> float:
    """Check that a diffusion time (squared bandwidth) is a positive finite scalar."""
    t = float(t)
    if not np.isfinite(t) or t <= 0.0:
        raise ValueError(f"diffusion time t must be positive and finite, got {t}")
    return t


def validate_ratio(r: float) -> float:
    """Check that a boundary ratio is a non-negative finite scalar."""
    r = float(r)
    if not np.isfinite(r) or r < 0.0:
        raise ValueError(f"boundary ratio r must be non-negative and finite, got {r}")
    return r


@dataclass(frozen=True)
class SummationControl:
    """Truncation policy for the kernel and series sums.

    tol is an absolute bound on the first omitted term (the tails here are
    dominated by monotone Gaussian factors); max_terms caps the number of
    modes or Gaussian images per side before giving up.
    """

    tol: float = 1e-14
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_CONTROL = SummationControl()


@dataclass(frozen=True)
class SampleSet:
    """Validated i.i.d. observations on [0, 1], kept in input order."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if vals.size < 1:
            raise ValueError("sample set must contain at least one observation")
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")
        if vals.min() < 0.0 or vals.max() > 1.0:
            raise ValueError("samples must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    @classmethod
    def coerce(cls, samples) -> "SampleSet":
        if isinstance(samples, SampleSet):
            return samples
        return cls(np.asarray(samples, dtype=float))

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class EvaluationGrid:
    """Strictly increasing evaluation points inside [0, 1]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two one-dimensional points")
        if pts.min() < 0.0 or pts.max() > 1.0:
            raise ValueError("grid points must lie in [0, 1]")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, count: int = 1001) -> "EvaluationGrid":
        """Uniform grid of `count` points spanning [0, 1]."""
        if count < 2:
            raise ValueError("uniform grid needs at least two points")
        return cls(np.linspace(0.0, 1.0, count))

    @property
    def size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class GridDensity:
    """Density values on an evaluation grid, tagged with the model parameters.

    r is None for boundary-agnostic baselines (which need not integrate to
    one on [0, 1]); for the linked estimator the values satisfy the mass,
    positivity and f(0) = r f(1) properties up to numerical tolerance.
    """

    grid: EvaluationGrid
    values: np.ndarray
    r: Optional[float]
    t: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.points.shape:
            raise ValueError("values must match the grid shape")
        object.__setattr__(self, "values", vals)

    def mass(self) -> float:
        """Trapezoid integral of the values over the grid."""
        return float(np.trapezoid(self.values, self.grid.points))

    def boundary_residual(self) -> float:
        """f(0) - r f(1); zero for an exact linked-boundary density."""
        if self.r is None:
            raise ValueError("boundary residual is undefined without a ratio r")
        return float(self.values[0] - self.r * self.values[-1])
