"""Linked-boundary kernel, density estimate, and stationary profile."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkedkde import (
    EvaluationGrid,
    SampleSet,
    TruncationError,
    empirical_transforms,
    estimate_density,
    eval_K1,
    eval_linked_kernel,
    eval_series_solution,
    lscv_bandwidth,
    parabolic,
    sample_synthetic,
    stationary_density,
    truncation_bound,
)
from linkedkde import series_solver
from linkedkde.bandwidth import DEFAULT_LSCV_GRID

RATIOS = [0.0, 0.5, 1.0, 2.0, 10.0]


def kernel_sum(samples, r, t, grid):
    """The estimate as the explicit mean of kernel columns, independent of the series."""
    x = np.atleast_1d(np.asarray(samples, dtype=float))
    return eval_linked_kernel(r, grid.points[None, :], x[:, None], t).mean(axis=0)


def test_reduces_to_periodic_kernel_at_unit_ratio():
    assert eval_linked_kernel(1.0, 0.3, 0.7, 0.05) == pytest.approx(
        eval_K1(-0.4, 0.05), abs=1e-14
    )


def test_left_boundary_closed_form():
    # K(r; 0, y, t) = 2r/(1+r) K1(y, t)
    assert eval_linked_kernel(2.0, 0.0, 0.4, 0.05) == pytest.approx(
        (4.0 / 3.0) * eval_K1(0.4, 0.05), abs=1e-13
    )


def test_kernel_column_has_unit_mass():
    xs = np.linspace(0.0, 1.0, 4001)
    mass = np.trapezoid(eval_linked_kernel(2.0, xs, 0.37, 0.05), xs)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        eval_linked_kernel(-0.5, 0.3, 0.4, 0.05)
    with pytest.raises(ValueError):
        eval_linked_kernel(1.0, 0.3, 0.4, -0.05)
    with pytest.raises(ValueError):
        eval_linked_kernel(1.0, 1.3, 0.4, 0.05)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_points_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        eval_linked_kernel(2.0, [0.3, bad], 0.4, 0.05)
    with pytest.raises(ValueError, match="finite"):
        eval_linked_kernel(2.0, 0.3, [bad, 0.4], 0.05)


def test_single_sample_periodic_estimate_is_shifted_kernel():
    grid = EvaluationGrid.uniform(1001)
    est = estimate_density([0.5], 1.0, 0.05, grid)
    assert est.values == pytest.approx(eval_K1(grid.points - 0.5, 0.05), abs=1e-14)


def test_estimate_boundary_ratio_holds():
    rng = np.random.default_rng(11)
    est = estimate_density(rng.random(40), 2.0, 0.01)
    assert est.values[0] == pytest.approx(2.0 * est.values[-1], rel=1e-10)


def test_estimate_matches_series_oracle_for_point_mass():
    tr = empirical_transforms([0.5], truncation_bound(0.02))
    grid = EvaluationGrid.uniform(101)
    series = eval_series_solution(tr, 2.0, 0.02, grid.points)
    est = estimate_density([0.5], 2.0, 0.02, grid)
    assert np.abs(est.values - series).max() < 1e-9


def test_tiny_t_takes_the_series_route_and_matches_the_kernel_sum():
    # t = 5e-9 needs more modes than the old cap of 10^4, where the estimate
    # used to sum kernels
    assert truncation_bound(5e-9) > 10**4
    samples = np.random.default_rng(4).random(300)
    grid = EvaluationGrid.uniform(1001)
    est = estimate_density(samples, 2.0, 5e-9, grid)
    assert np.abs(est.values - kernel_sum(samples, 2.0, 5e-9, grid)).max() <= 1e-9


class TestBelowTheOldModeCap:
    """The ground the kernel sum covered, on the series route against the kernel-sum oracle."""

    SAMPLES = np.concatenate([[0.0, 1.0], np.random.default_rng(21).random(98)])
    POINTS = np.concatenate([[0.0], np.sort(np.random.default_rng(22).random(300)), SAMPLES[2:12], [1.0]])

    @pytest.mark.parametrize("t", [5e-9, 1e-9, 2e-10])
    @pytest.mark.parametrize("r", [0.0, 2.0, 1e6, 1e308])
    def test_uniform_and_explicit_grids_match_the_kernel_sum(self, r, t):
        assert truncation_bound(t) > 10**4
        for grid in (EvaluationGrid.uniform(1001), EvaluationGrid(np.unique(self.POINTS))):
            est = estimate_density(self.SAMPLES, r, t, grid)
            assert np.abs(est.values - kernel_sum(self.SAMPLES, r, t, grid)).max() <= 1e-9

    def test_past_the_cap_raises(self):
        t = 5e-11
        with pytest.raises(TruncationError, match=f"after {series_solver.MAX_MODES} modes"):
            truncation_bound(t)
        with pytest.raises(TruncationError):
            estimate_density(self.SAMPLES, 2.0, t)


@pytest.mark.parametrize("t", [1e300, 3e307, 1e308, sys.float_info.max])
@pytest.mark.parametrize("r", [0.0, 2.0, 1e308])
def test_huge_time_gives_the_stationary_profile(r, t):
    # k t overflows from t = 2.9e307; no RuntimeWarning may be raised (they are errors here)
    assert truncation_bound(t) == 1
    intercept, slope = stationary_density(r)
    points = np.array([0.0, 0.25, 0.5, 0.9, 1.0])
    for grid in (EvaluationGrid.uniform(11), EvaluationGrid(points)):
        est = estimate_density([0.0, 0.3, 1.0], r, t, grid)
        assert np.abs(est.values - (intercept + slope * grid.points)).max() <= 1e-14


def test_huge_ratio_estimate_is_finite_with_unit_mass():
    samples = np.random.default_rng(9).random(500)
    est = estimate_density(samples, 1e308, 0.5)
    assert np.all(np.isfinite(est.values))
    assert abs(est.mass() - 1.0) <= 1e-10
    assert est.values.min() >= 0.0
    # the density vanishes at 1 with f(0) = r f(1) still holding
    assert abs(est.boundary_residual()) <= 1e-10 * np.abs(est.values).max()
    assert np.abs(est.values - kernel_sum(samples, 1e308, 0.5, est.grid)).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    r=st.one_of(st.sampled_from([0.0, 1e-6, 0.5, 1.0, 2.0, 1e6, 1e308]), st.floats(0.0, 100.0)),
    log_t=st.floats(math.log(1e-4), 0.0),
    n=st.integers(1, 500),
    ends=st.sampled_from([(), (0.0,), (1.0,), (0.0, 1.0)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_invariants_property(r, log_t, n, ends, seed):
    samples = np.concatenate([ends, np.random.default_rng(seed).random(n)])[:n]
    t = math.exp(log_t)
    grid = EvaluationGrid.uniform(1001)
    est = estimate_density(samples, r, t, grid)
    assert abs(est.mass() - 1.0) <= 1e-5
    assert est.values.min() >= -1e-12
    assert abs(est.boundary_residual()) <= 1e-10 * np.abs(est.values).max()
    assert np.abs(est.values - kernel_sum(samples, r, t, grid)).max() <= 1e-9


def point_rounding_allowance(samples, r, t, grid):
    """2 |f'(x_j)| |x_j - j/M| at each point x_j of a uniform grid.

    The FFT route gives the estimate at the exact nodes j / M, the Taylor
    cells at the stored points, which can lie an ulp away; at t = 2e-8 the
    estimate moves by up to about 5e-13 of its maximum over one ulp. The
    slope is a central difference of the kernel sum.
    """
    gap = [abs(Fraction(x) - Fraction(j, grid.divisions)) for j, x in enumerate(grid.points)]
    h = 1e-3 * math.sqrt(t)
    lo, hi = np.maximum(grid.points - h, 0.0), np.minimum(grid.points + h, 1.0)
    x = np.asarray(samples, dtype=float)[:, None]
    rise = eval_linked_kernel(r, hi, x, t).mean(axis=0) - eval_linked_kernel(r, lo, x, t).mean(axis=0)
    return 2.0 * np.abs(rise) / (hi - lo) * np.array(gap, dtype=float)


class TestUniformGridSynthesis:
    # At t = 2e-8 the series adds up 9324 modes, more than any grid here has
    # nodes, so every grid takes the Taylor cells; a small sample keeps
    # max|f| well above the round-off of those sums.
    SAMPLES = np.concatenate([[0.0, 1.0], np.random.default_rng(12).random(38)])

    @pytest.mark.parametrize("t", [2e-8, 1e-5, 1e-3, 0.3])
    @pytest.mark.parametrize("r", [0.0, 1e-6, 0.5, 1.0, 2.0, 1e6, 1e308])
    def test_uniform_grid_matches_the_series_at_its_points(self, r, t):
        # the series at the same doubles, summed on the Taylor cells
        tr = empirical_transforms(self.SAMPLES, truncation_bound(t))
        for count in (2, 3, 11, 1001, 2001):
            est = estimate_density(self.SAMPLES, r, t, EvaluationGrid.uniform(count))
            want = eval_series_solution(tr, r, t, est.grid.points)
            allowed = 1e-13 * np.abs(want).max() + point_rounding_allowance(self.SAMPLES, r, t, est.grid)
            assert np.all(np.abs(est.values - want) <= allowed), count
            assert est.values[0] == pytest.approx(r * est.values[-1], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_kernel_past_the_grid_nodes_matches_the_kernel_form(self, r):
        # t = 2e-8 keeps 9324 modes, where a phase n x rounded before its
        # nearest integer is taken off is off by up to N ulps of a turn, and
        # a fold into one FFT of 1000 nodes is exact at j / 1000, not at the
        # doubles of the grid; the Taylor cells split each point exactly
        grid = EvaluationGrid.uniform(1001)
        got = estimate_density([0.3141], r, 2e-8, grid).values
        want = kernel_sum([0.3141], r, 2e-8, grid)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("t", [1e-6, 1e-7, 1e-8])
    def test_uniform_grid_with_more_modes_than_nodes_equals_the_cells(self, t):
        # 1319 modes at t = 1e-6 and more below, on 1000 divisions: a fold of
        # the modes into one FFT was 2.0e-14, 5.3e-14 and 3.7e-13 of the
        # maximum away from the series at the grid's doubles
        samples = sample_synthetic(parabolic(), 50, seed=0).values
        grid = EvaluationGrid.uniform(1001)
        assert truncation_bound(t) + 1 > grid.divisions
        got = estimate_density(samples, 2.0, t, grid).values
        cells = estimate_density(samples, 2.0, t, EvaluationGrid(grid.points)).values
        assert np.abs(got - cells).max() <= 1e-14 * np.abs(cells).max()

    @pytest.mark.parametrize("n_modes", [1, 42, 9324, 131072])
    def test_sine_sum_is_exactly_zero_at_both_ends(self, n_modes):
        # g(x) = g(-x) at 0 and 1 for any coefficients: the cells of 0, 1, -0
        # and -1 are one cell at offset 0
        coef = np.array([1.0, 1j]) @ np.random.default_rng(n_modes).standard_normal((2, n_modes + 1))
        ends = series_solver._cell_synthesis(coef, np.array([0.0, 1.0, -0.0, -1.0]))
        assert np.all(ends == ends[0])

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_explicit_grids_with_both_ends_keep_the_ratio_exactly(self, r):
        # r f(1) and f(0) are one product where r is a power of two or 0
        points = np.concatenate([[0.0], np.sort(np.random.default_rng(3).random(50)), [1.0]])
        for t in (2e-8, 1e-3, 0.3):
            est = estimate_density(self.SAMPLES, r, t, EvaluationGrid(points))
            assert est.values[0] - r * est.values[-1] == 0.0

    def test_uniform_grid_takes_under_48_bytes_per_point(self):
        # the coefficients padded to M and their inverse FFT take 16 B per point
        # each, the result 8; no index or gathered copy of the FFT row is kept
        grid = EvaluationGrid.uniform(10**6 + 1)
        samples = np.random.default_rng(5).random(1000)
        tracemalloc.start()
        try:
            estimate_density(samples, 2.0, 1e-3, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * grid.points.size

    def test_explicit_grid_takes_under_88_bytes_per_point(self):
        # the points and their mirrors take 16 B per point, and their
        # offsets, cells, sums and one gathered row 16 B each: 80 B in all
        grid = EvaluationGrid(np.linspace(0.0, 1.0, 10**6 + 1) ** 2)
        samples = np.random.default_rng(5).random(1000)
        tracemalloc.start()
        try:
            estimate_density(samples, 2.0, 1e-3, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 88 * grid.points.size

    @pytest.fixture
    def synthesis_calls(self, monkeypatch):
        calls = []
        synthesis = series_solver._cell_synthesis

        def spy(coef, x):
            calls.append(x.shape)
            return synthesis(coef, x)

        monkeypatch.setattr(series_solver, "_cell_synthesis", spy)
        return calls

    def test_uniform_grids_that_hold_every_mode_and_lscv_never_take_the_cells(self, synthesis_calls):
        estimate_density(self.SAMPLES, 2.0, 1e-3)
        modes = truncation_bound(2e-8)
        estimate_density(self.SAMPLES, 2.0, 2e-8, EvaluationGrid.uniform(modes + 2))
        lscv_bandwidth(self.SAMPLES, 2.0, DEFAULT_LSCV_GRID)
        assert synthesis_calls == []

    def test_uniform_grids_with_more_modes_than_nodes_take_the_cells(self, synthesis_calls):
        # N + 1 modes on M divisions: one FFT while N + 1 <= M
        modes = truncation_bound(2e-8)
        estimate_density(self.SAMPLES, 2.0, 2e-8, EvaluationGrid.uniform(modes + 1))
        estimate_density(self.SAMPLES, 2.0, 2e-8, EvaluationGrid.uniform(11))
        assert synthesis_calls == [(2, modes + 1), (2, 11)]

    def test_explicit_points_take_the_cell_synthesis(self, synthesis_calls):
        # one call per grid, at the points and their mirrors
        uniform_points = EvaluationGrid(np.linspace(0.0, 1.0, 11))
        assert uniform_points.divisions is None
        estimate_density(self.SAMPLES, 2.0, 1e-3, uniform_points)
        estimate_density(self.SAMPLES, 2.0, 1e-3, EvaluationGrid(np.linspace(0.0, 1.0, 7) ** 2))
        assert synthesis_calls == [(2, 11), (2, 7)]


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        estimate_density([], 1.0, 0.05)


@pytest.mark.parametrize("r", RATIOS)
def test_mass_positivity_boundary_for_random_samples(r):
    rng = np.random.default_rng(hash(r) % 2**32)
    grid = EvaluationGrid.uniform(2001)
    for t in (1e-3, 0.03, 1.0):
        n = int(rng.integers(1, 501))
        est = estimate_density(rng.random(n), r, t, grid)
        assert abs(est.mass() - 1.0) <= 1e-5
        assert est.values.min() >= -1e-12
        assert abs(est.boundary_residual()) <= 1e-10 * np.abs(est.values).max()


def test_max_principle_bounds_for_compatible_data():
    # f0 = 6/11 (-2x^2 + x + 2) is continuous with f0(0) = 2 f0(1); its
    # evolution stays inside the linked-boundary comparison bounds.
    r = 2.0
    lo_factor = min(2.0 * r / (1.0 + r), 2.0 / (1.0 + r))
    hi_factor = max(2.0 * r / (1.0 + r), 2.0 / (1.0 + r))
    a = 6.0 / 11.0
    b = (6.0 / 11.0) * 2.125  # maximum of f0, attained at x = 1/4

    def c0(k):
        out = np.ones_like(k)
        out[1:] = -24.0 / (11.0 * k[1:] ** 2)
        return out

    def s0(k):
        out = np.zeros_like(k)
        out[1:] = 6.0 / (11.0 * k[1:])
        return out

    def s1(k):
        out = np.zeros_like(k)
        out[1:] = -6.0 / (11.0 * k[1:]) - 72.0 / (11.0 * k[1:] ** 3)
        return out

    from linkedkde.series_solver import transforms_from_functions

    xs = np.linspace(0.0, 1.0, 501)
    for t in (1e-3, 0.01, 0.1, 1.0, 10.0):
        tr = transforms_from_functions(c0, s0, s1, truncation_bound(t))
        vals = eval_series_solution(tr, r, t, xs)
        assert vals.min() >= lo_factor * a - 1e-9
        assert vals.max() <= hi_factor * b + 1e-9


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_oversmoothing_limit_is_affine_stationary(r):
    rng = np.random.default_rng(5)
    est = estimate_density(rng.random(64), r, 50.0)
    intercept, slope = stationary_density(r)
    stationary = intercept + slope * est.grid.points
    assert np.abs(est.values - stationary).max() <= 1e-10


def test_stationary_density_examples():
    assert stationary_density(1.0) == pytest.approx((1.0, 0.0))
    assert stationary_density(2.0) == pytest.approx((4.0 / 3.0, -2.0 / 3.0))
    assert stationary_density(0.0) == pytest.approx((0.0, 2.0))


def test_stationary_density_integrates_to_mass():
    for r in RATIOS:
        intercept, slope = stationary_density(r)
        assert intercept + slope / 2.0 == pytest.approx(1.0, abs=1e-14)
        # endpoint ratio
        assert intercept == pytest.approx(r * (intercept + slope), abs=1e-12)


def test_samples_at_exact_endpoints_accepted():
    est = estimate_density([0.0, 1.0, 0.5], 2.0, 0.05)
    assert abs(est.mass() - 1.0) <= 1e-6


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([0.2, 1.4]))
    with pytest.raises(ValueError):
        SampleSet(np.array([-0.1]))
    s = SampleSet.coerce([0.1, 0.9])
    assert s.n == 2
