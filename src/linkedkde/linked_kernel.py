"""Linked-boundary diffusion kernel and the point-mass density estimate.

The kernel couples the endpoint values of the estimate through
``f(0, t) = r f(1, t)`` and equal endpoint slopes. It is assembled from the
periodic heat kernel K1 and its derivative:

    K(r; x, y, t) = K1(x-y, t) [1 + (x-y) q] + K1(x+y, t) (x+y-1) q
                    + t q [K1'(x+y, t) + K1'(x-y, t)],      q = (1-r)/(1+r).

Averaging kernel columns over the sample gives the estimator
``f(x, t) = (1/n) sum_k K(r; x, X_k, t)``, a bona fide density for t > 0.
:func:`estimate_density` computes the same average through the
generalized-eigenfunction series and never sums kernels; the kernel form is
the public closed form and the series' independent check.
"""

from __future__ import annotations

import numpy as np

from .heat_kernels import eval_K1, eval_K1_dx
from .series_solver import _SpectralFit, truncation_bound
from .types import (
    EvaluationGrid,
    GridDensity,
    SampleSet,
    _check_unit_interval,
    _q_weights,
    validate_ratio,
    validate_time,
)


def eval_linked_kernel(r: float, x, y, t: float):
    """Evaluate K(r; x, y, t) for x, y in [0, 1] (broadcastable arrays).

    At r = 1 all correction terms vanish and the kernel reduces to the
    periodic heat kernel K1(x - y, t).
    """
    r = validate_ratio(r)
    t = validate_time(t)
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    _check_unit_interval(x_arr, "x")
    _check_unit_interval(y_arr, "y")
    scalar = x_arr.ndim == 0 and y_arr.ndim == 0

    diff = x_arr - y_arr
    total = x_arr + y_arr
    q = _q_weights(r)[0]

    out = eval_K1(diff, t) * (1.0 + diff * q)
    if r != 1.0:
        out = out + eval_K1(total, t) * (total - 1.0) * q
        out = out + t * q * (eval_K1_dx(total, t) + eval_K1_dx(diff, t))

    return float(out) if scalar else out


def estimate_density(
    samples,
    r: float,
    t: float,
    grid: EvaluationGrid | None = None,
) -> GridDensity:
    """Linked-boundary kernel density estimate on a grid.

    The estimate is computed from the series solution: one fit of the
    sample, its transforms at ``N = truncation_bound(t)`` modes (O(n +
    N log N), on the Taylor cells of ``empirical_transforms``), then the
    series on the grid by ``series_solver._synthesis``, whose rule takes
    one inverse FFT of the mode weights on a uniform grid, O(M log M), or
    the Taylor cells, O(N log N + grid). The series truncates at the fixed
    tolerance ``types.TOL`` = 1e-14. Past the series' mode cap
    (``series_solver.MAX_MODES``, reached for t below about 1.0e-10),
    ``truncation_bound`` raises TruncationError.

    Parameters
    ----------
    samples : SampleSet or array-like
        Observations on [0, 1].
    r : float
        Boundary ratio f(0)/f(1), non-negative.
    t : float
        Diffusion time (squared bandwidth).
    grid : EvaluationGrid, optional
        Defaults to the 1001-point uniform grid.

    Returns
    -------
    GridDensity of the estimate at the grid points: non-negative values
    with ``values[0] = r * values[-1]`` up to numerical tolerance. The
    estimate itself has unit mass; the trapezoid mass of the grid values
    is close to one only when the grid spacing resolves the bandwidth
    ``sqrt(t)``: at t = 2e-8 on the default grid it was 1.0074 for one
    n = 2e4 sample.
    """
    samples = SampleSet.coerce(samples)
    r = validate_ratio(r)
    t = validate_time(t)
    if grid is None:
        grid = EvaluationGrid.uniform(1001)

    values = _SpectralFit.from_samples(samples, r, truncation_bound(t)).evaluate(t, grid)
    return GridDensity(grid=grid, values=values, r=r, t=t)


def stationary_density(r: float) -> tuple[float, float]:
    """Affine large-time limit of the estimate, as (intercept, slope).

    The profile ``1 - q + 2 q x``, q = (1-r)/(1+r), is the unique stationary
    density obeying the linked boundary conditions with unit integral.
    """
    q, one_minus_q, _ = _q_weights(validate_ratio(r))
    return (one_minus_q, 2.0 * q)
