"""The r axis of the public closed forms: every r from 0 to the largest doubles.

Each entry is called with warnings raised as errors. It must return finite
values or raise a typed error of the package (or a ValueError); it must
never overflow, warn or return a NaN or an infinity.
"""

import warnings

import numpy as np
import pytest

from linkedkde import (
    BinnedDensity,
    EvaluationGrid,
    GridDensity,
    TargetDensityInfo,
    amise_value,
    backward_euler_evolve,
    bin_samples,
    build_four_corners,
    estimate_density,
    eval_linked_kernel,
    expected_linked_density,
    lscv_bandwidth,
    matrix_exponential_evolve,
    oracle_amise_bandwidth,
    spectral_data,
    stationary_density,
)
from linkedkde.bandwidth import BandwidthSelection, boundary_bias_factor
from linkedkde.binned_solver import FourCornersMatrix, SpectralData
from linkedkde.types import RatioEstimationError, TruncationError

RATIOS = [0.0, 1e-300, 0.5, 1.0, 2.0, 1e154, 1e200, 1e307, 1e308]
T = 1e-3
SAMPLES = np.random.default_rng(23).beta(2.0, 3.0, 200)
# the package's typed errors; DegenerateSampleError and FlatDensityError are ValueErrors
TYPED = (ValueError, TruncationError, RatioEstimationError)


def _arrays(result):
    if isinstance(result, GridDensity):
        return [result.values]
    if isinstance(result, BinnedDensity):
        return [result.interior]
    if isinstance(result, FourCornersMatrix):
        return [result.w]
    if isinstance(result, SpectralData):
        return [result.eigenvalues, result.vectors]
    if isinstance(result, BandwidthSelection):
        return [result.t] + ([] if result.objective is None else [result.objective])
    return [result]


def _call(entry, *args):
    """The entry's result, or None for a typed error; finite, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = entry(*args)
        except TYPED:
            return None
    for values in _arrays(result):
        assert np.all(np.isfinite(np.asarray(values, dtype=float))), (entry.__name__, values)
    return result


def _gapped(r):
    return TargetDensityInfo(f_second_norm_sq=3.0, fprime0=-1.0, fprime1=2.0, r_true=r)


@pytest.mark.parametrize("r", RATIOS)
def test_series_and_kernel_entries_are_finite(r):
    _call(estimate_density, SAMPLES, r, T)
    _call(estimate_density, SAMPLES, r, T, EvaluationGrid([0.0, 0.37, 1.0]))
    _call(eval_linked_kernel, r, np.array([0.0, 0.5, 1.0]), np.array([[0.0], [0.2], [1.0]]), T)
    _call(stationary_density, r)
    _call(lscv_bandwidth, SAMPLES, r, [T, 4.0 * T])
    _call(expected_linked_density, lambda x: 6.0 * x * (1.0 - x), r, T, np.array([0.0, 0.5, 1.0]))


@pytest.mark.parametrize("r", RATIOS)
def test_oracle_entries_are_finite_and_bias_factor_is_bounded(r):
    a_r = _call(boundary_bias_factor, r)
    assert boundary_bias_factor(1.0) <= a_r <= boundary_bias_factor(0.0)
    _call(amise_value, T, 1000, _gapped(r))
    _call(oracle_amise_bandwidth, 1000, _gapped(r))


@pytest.mark.parametrize("r", RATIOS)
def test_binned_entries_are_finite(r):
    _call(build_four_corners, 50, r)
    u = _call(bin_samples, SAMPLES, 50, r)
    _call(backward_euler_evolve, u, T)
    _call(matrix_exponential_evolve, u, T)


@pytest.mark.parametrize("r", RATIOS)
@pytest.mark.parametrize("m", [2, 3, 50])
def test_spectral_residuals_stay_small(m, r):
    sd = _call(spectral_data, m, r)
    residuals = _call(sd.residuals)
    assert residuals.max() <= 1e-10
    assert residuals[sd.zero_index] <= 1e-15
