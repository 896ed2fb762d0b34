"""Shared containers and error types for the linked-boundary estimator.

A container that holds arrays, here or in another module, is declared with
``eq=False``: it compares by identity and hashes as an object, since ``==``
on arrays has no single truth value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _check_unit_interval(arr: np.ndarray, name: str) -> None:
    """Raise ValueError unless every entry lies in [0, 1]; NaN fails both comparisons."""
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError(f"{name} must be finite and lie in [0, 1]")


# Truncation of the kernel and series sums: a sum stops at the first term
# whose bound is below TOL (the tails are dominated by monotone Gaussian
# factors). The heat-kernel sums raise TruncationError past MAX_TERMS modes or
# images per side, which eval_K1 never reaches, taking each form where it
# converges fast; the linked series has its own cap, series_solver.MAX_MODES.
TOL = 1e-14
MAX_TERMS = 10_000


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Validated i.i.d. observations on [0, 1], kept in input order."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if vals.size < 1:
            raise ValueError("sample set must contain at least one observation")
        _check_unit_interval(vals, "samples")
        object.__setattr__(self, "values", vals)

    @classmethod
    def coerce(cls, samples) -> "SampleSet":
        if isinstance(samples, SampleSet):
            return samples
        return cls(np.asarray(samples, dtype=float))

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """Strictly increasing finite evaluation points inside [0, 1].

    ``divisions`` is M for the uniform grid j / M, j = 0..M, built by
    :meth:`uniform`, and None otherwise; it is not a constructor argument.
    Evaluators read it to take their FFT routes; a grid is never judged
    uniform by comparing its points.
    """

    points: np.ndarray
    divisions: Optional[int] = field(default=None, init=False)

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two one-dimensional points")
        _check_unit_interval(pts, "grid points")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, count: int = 1001) -> "EvaluationGrid":
        """Uniform grid of `count` points spanning [0, 1]."""
        if count < 2:
            raise ValueError("uniform grid needs at least two points")
        # linspace's points lie in [0, 1] and increase, so the grid skips __post_init__
        # rather than take the differences of its check (8 B a point)
        grid = object.__new__(cls)
        object.__setattr__(grid, "points", np.linspace(0.0, 1.0, count))
        object.__setattr__(grid, "divisions", count - 1)
        return grid

    @property
    def size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True, eq=False)
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
