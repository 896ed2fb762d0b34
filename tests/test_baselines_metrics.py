"""Baseline estimators and error metrics."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from linkedkde import EvaluationGrid, cosine_kde, gaussian_kde_baseline, rate_fit, run_mise_experiment
from linkedkde import TruncationError, estimate_density, eval_linked_kernel, expected_cosine_density, parabolic
from linkedkde import series_solver
from linkedkde.experiments import _error_norms
from linkedkde.baselines import _periodic_plan, cosine_mode_count
from linkedkde.series_solver import MAX_MODES, truncation_bound

# Samples per block of the reference sums below.
_REF_BLOCK = 256
# The periodic Gaussian has period 2 up to this time and 4 just past it.
PERIOD_TWO_T = 1.0 / (2.0 * math.log(1e16))


def direct_gaussian(x, pts, t):
    """Whole-line Gaussian KDE summed over every sample-point pair."""
    total = np.zeros_like(pts)
    for start in range(0, x.size, _REF_BLOCK):
        z = (pts[None, :] - x[start : start + _REF_BLOCK, None]) / math.sqrt(t)
        total += np.exp(-0.5 * z * z).sum(axis=0)
    return total / (x.size * math.sqrt(2.0 * math.pi * t))


def direct_cosine(x, t):
    """Cosine KDE from sample means of cos(k pi X), evaluated by dense cosine columns."""
    k = np.arange(1, cosine_mode_count(t) + 1)
    coef = np.zeros(k.size)
    for start in range(0, x.size, _REF_BLOCK):
        coef += np.cos(math.pi * np.outer(k, x[start : start + _REF_BLOCK])).sum(axis=1)
    weights = 2.0 * np.exp(-0.5 * (k * math.pi) ** 2 * t) * coef / x.size

    def evaluate(pts):
        return 1.0 + np.concatenate(
            [weights @ np.cos(math.pi * np.outer(k, pts[i : i + 512])) for i in range(0, pts.size, 512)]
        )

    return evaluate


def sample_with_ends(n):
    """n points in [0, 1], the first at exactly 0 and, for n > 1, the second at exactly 1."""
    x = np.random.default_rng(n).random(n)
    x[0] = 0.0
    if n > 1:
        x[1] = 1.0
    return x


@pytest.fixture
def synth_calls(monkeypatch):
    calls = []

    def spy(coef, length):
        calls.append(length)
        return synthesize(coef, length)

    synthesize = series_solver._synthesize
    monkeypatch.setattr(series_solver, "_synthesize", spy)
    return calls


@pytest.fixture
def cell_calls(monkeypatch):
    calls = []

    def spy(coef, x):
        calls.append(x.size)
        return cell_synthesis(coef, x)

    cell_synthesis = series_solver._cell_synthesis
    monkeypatch.setattr(series_solver, "_cell_synthesis", spy)
    return calls


def searched_plan(t, divisions):
    """The period search the closed-form plan replaced, for grids the FFT route takes: (L, K)."""
    log_tol = math.log(1e16)
    reach = 1.0 + math.sqrt(2.0 * t * log_tol)
    period = 2
    while period < reach and period <= 16:
        period *= 2
    return period * divisions, math.ceil(period * math.sqrt(2.0 * log_tol / t) / (2.0 * math.pi))


class TestSpectralRoutes:
    @pytest.mark.parametrize("n", [1, 50, 10_000])
    @pytest.mark.parametrize("t", [3e-6, 1e-4, 1e-2, 0.999999 * PERIOD_TWO_T, 1.000001 * PERIOD_TWO_T, 1.0])
    def test_fft_route_matches_direct_sums(self, n, t):
        x = sample_with_ends(n)
        cosine_at = direct_cosine(x, t)
        for count in (2, 11, 1001, 4001):
            grid = EvaluationGrid.uniform(count)
            for got, want in (
                (gaussian_kde_baseline(x, t, grid).values, direct_gaussian(x, grid.points, t)),
                (cosine_kde(x, t, grid).values, cosine_at(grid.points)),
            ):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), count

    @pytest.mark.parametrize(
        "t, period",
        [(1e-4, 2), (0.999999 * PERIOD_TWO_T, 2), (1.000001 * PERIOD_TWO_T, 4), (0.1, 4), (0.2, 8), (3.0, 16)],
    )
    def test_period_is_the_least_power_of_two_past_the_reach(self, t, period):
        # P >= 1 + sqrt(2 t ln(1/tol)) keeps every image but the nearest below tol
        reach = 1.0 + math.sqrt(2.0 * t * math.log(1e16))
        assert _periodic_plan(t)[0] == period
        assert period >= reach > period / 2

    def test_plan_is_the_searched_one_wherever_the_fft_runs(self):
        # the closed form gives the P and K of the search it replaced, bit for bit,
        # over the FFT route's times and at each period's edge
        edges = [((p - 1.0) / math.sqrt(2.0 * math.log(1e16))) ** 2 for p in (2, 4, 8, 16)]
        times = list(np.geomspace(1.1e-10, 3.5, 4001)) + [e * f for e in edges for f in (1 - 1e-15, 1.0, 1 + 1e-15)]
        for t in times:
            period, n_modes = _periodic_plan(t)
            if period <= 16:
                assert (period * 1000, n_modes) == searched_plan(t, 1000), t

    @pytest.mark.parametrize("t", [1e300, 1e308, sys.float_info.max])
    def test_period_at_huge_times_is_closed_form(self, t):
        # 2 t overflows at the largest double; the reach is formed without it
        period, n_modes = _periodic_plan(t)
        reach = 1.0 + math.sqrt(t) * math.sqrt(2.0 * math.log(1e16))
        assert period & (period - 1) == 0 and period >= reach > period / 2
        assert 1 <= n_modes <= 30

    def test_fft_route_taken_on_resolved_uniform_grids(self, synth_calls):
        gaussian_kde_baseline([0.0, 0.4, 1.0], 1e-4, EvaluationGrid.uniform(1001))
        cosine_kde([0.0, 0.4, 1.0], 1e-4, EvaluationGrid.uniform(1001))
        assert synth_calls == [_periodic_plan(1e-4)[0] * 1000, 2000]

    @pytest.mark.parametrize(
        "estimate, t, period",
        [(gaussian_kde_baseline, 1e-3, 2), (gaussian_kde_baseline, 0.1, 4), (gaussian_kde_baseline, 3.0, 16), (cosine_kde, 1e-3, 2)],
    )
    def test_fft_route_values_own_their_memory(self, synth_calls, estimate, t, period):
        # the FFT row holds P M + 1 values; a view of it would keep all of them alive
        values = estimate(np.linspace(0.05, 0.95, 50), t).values
        assert synth_calls == [period * 1000]
        assert values.base is None and values.shape == (1001,)

    @pytest.mark.parametrize(
        "t, fft, method",
        [
            pytest.param(2e-6, True, "gaussian", id="2e-06-True"),
            pytest.param(1.5e-6, False, "gaussian", id="1.5e-06-False"),
            pytest.param(1e-4, True, "cosine", id="cosine-0.0001-True"),
            pytest.param(1e-4, False, "cosine", id="cosine-0.0001-False"),
            pytest.param(1e-4, True, "linked", id="linked-0.0001-True"),
            pytest.param(1e-4, False, "linked", id="linked-0.0001-False"),
        ],
    )
    def test_both_sides_of_the_mode_crossover_take_the_fft_or_the_cells(self, synth_calls, cell_calls, t, fft, method):
        # K + 1 <= L takes the FFT, K + 1 > L the Taylor cells, with L = P M: the
        # Gaussian on M = 1000 by its t; the cosine (P = 2) and the linked series
        # (P = 1, N + 1 = M or M + 1) on the least M that holds their K modes, or one less
        x = sample_with_ends(50)
        if method == "gaussian":
            period, n_modes = _periodic_plan(t)
            grid = EvaluationGrid.uniform(1001)
        else:
            period, n_modes = (2, cosine_mode_count(t)) if method == "cosine" else (1, truncation_bound(t))
            divisions = -(-(n_modes + 1) // period)
            grid = EvaluationGrid.uniform(divisions + 1 if fft else divisions)
        assert (n_modes + 1 <= period * grid.divisions) == fft
        if method == "gaussian":
            got, want = gaussian_kde_baseline(x, t, grid).values, direct_gaussian(x, grid.points, t)
        elif method == "cosine":
            got, want = cosine_kde(x, t, grid).values, direct_cosine(x, t)(grid.points)
        else:
            got = estimate_density(x, 2.0, t, grid).values
            want = eval_linked_kernel(2.0, grid.points[None, :], x[:, None], t).mean(axis=0)
        assert (len(synth_calls), len(cell_calls)) == ((1, 0) if fft else (0, 1))
        assert np.abs(got - want).max() <= 1e-13 * want.max()

    @pytest.mark.parametrize("grid", [EvaluationGrid.uniform(1001), EvaluationGrid(np.linspace(0.0, 1.0, 1001) ** 2)])
    def test_unresolved_kernel_matches_the_direct_sum(self, grid):
        # t = 1e-8 keeps 27,324 modes of X / 2, 13.7 times the FFT length: the cells
        # read the points as doubles, where a folded FFT was 3.5e-13 of the peak off
        x = sample_with_ends(50)
        got = gaussian_kde_baseline(x, 1e-8, grid).values
        want = direct_gaussian(x, grid.points, 1e-8)
        assert np.abs(got - want).max() <= 1e-13 * want.max()

    def test_long_period_takes_the_cells(self, synth_calls, cell_calls):
        # at t = 5 the grid resolves the kernel, but the period exceeds 16
        period, n_modes = _periodic_plan(5.0)
        assert n_modes + 1 <= period * 1000 and period > 16
        x = sample_with_ends(50)
        got = gaussian_kde_baseline(x, 5.0).values
        assert synth_calls == [] and cell_calls == [1001]
        want = direct_gaussian(x, EvaluationGrid.uniform(1001).points, 5.0)
        assert np.abs(got - want).max() <= 1e-13 * want.max()

    def test_non_uniform_grid_takes_the_cells(self, synth_calls, cell_calls):
        grid = EvaluationGrid(np.linspace(0.0, 1.0, 301) ** 2)
        assert grid.divisions is None
        x = sample_with_ends(50)
        for got, want in (
            (gaussian_kde_baseline(x, 1e-3, grid).values, direct_gaussian(x, grid.points, 1e-3)),
            (cosine_kde(x, 1e-3, grid).values, direct_cosine(x, 1e-3)(grid.points)),
        ):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert synth_calls == [] and cell_calls == [301, 301]

    def test_explicit_grid_takes_one_cell_synthesis(self, synth_calls, cell_calls):
        grid = EvaluationGrid(np.sort(np.random.default_rng(1).random(10_000)))
        gaussian_kde_baseline(np.random.default_rng(2).random(10_000), 1e-4, grid)
        assert synth_calls == [] and cell_calls == [10_000]

    @pytest.mark.parametrize("t", [1e300, 1e308, sys.float_info.max])
    def test_huge_time_takes_the_cells_without_hanging(self, synth_calls, cell_calls, t):
        # P is past 16 and the reach finite up to the largest double. Every
        # kernel is flat on [0, 1] at its peak 1 / sqrt(2 pi t).
        assert _periodic_plan(t)[0] > 16
        got = gaussian_kde_baseline(sample_with_ends(50), t).values
        assert synth_calls == [] and cell_calls == [1001]
        peak = 1.0 / (math.sqrt(t) * math.sqrt(2.0 * math.pi))
        assert np.abs(got - peak).max() <= 1e-13 * peak

    def test_uniform_points_without_divisions_are_not_taken_for_uniform(self, synth_calls, cell_calls):
        gaussian_kde_baseline([0.5], 1e-3, EvaluationGrid(np.linspace(0.0, 1.0, 1001)))
        assert synth_calls == [] and cell_calls == [1001]

    @pytest.mark.parametrize("t", [3e-6, 1e-4, 1e-2, 1.0])
    def test_gaussian_never_negative(self, t):
        # far from a lone boundary sample the exact value underflows to 0,
        # where FFT round-off alone would go negative
        for x in ([0.0], [1.0], sample_with_ends(50)):
            for count in (11, 1001, 4001):
                assert gaussian_kde_baseline(x, t, EvaluationGrid.uniform(count)).values.min() >= 0.0

    def test_explicit_point_cosines_are_blocked(self):
        # t = 1e-7 keeps 7483 modes; unblocked, the cosines on 1001 points
        # peaked at 120 MB
        x = sample_with_ends(50)
        grid = EvaluationGrid(np.linspace(0.0, 1.0, 1001))
        tracemalloc.start()
        try:
            got = cosine_kde(x, 1e-7, grid).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6
        assert np.abs(got - direct_cosine(x, 1e-7)(grid.points)).max() <= 1e-13 * got.max()


class TestModeCap:
    @pytest.mark.parametrize(
        "plan, edge",
        # the cosine keeps mode k of X / 2, the Gaussian mode K of X / P: the cap is P MAX_MODES modes
        [(cosine_mode_count, 8.147930972954225e-11), (lambda t: _periodic_plan(t)[1], 1.086390796393897e-10)],
    )
    def test_cap_is_the_series_top_frequency(self, plan, edge):
        assert plan(edge) <= 2 * MAX_MODES
        with pytest.raises(TruncationError, match="past the cap of 262144"):
            plan(edge * (1.0 - 1e-15))

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda t: cosine_kde(sample_with_ends(100), t),
            lambda t: gaussian_kde_baseline(sample_with_ends(100), t),
            lambda t: expected_cosine_density(parabolic().pdf, t, np.linspace(0.0, 1.0, 1001)),
        ],
    )
    @pytest.mark.parametrize("t", [1e-15, 5e-324])
    def test_past_the_cap_raises_before_any_transform(self, estimate, t):
        # at t = 1e-15 the cosine would keep 74.8 million modes, the Gaussian 86.4 million
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError):
                estimate(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6


class TestEvaluationGridDivisions:
    def test_uniform_grid_records_its_divisions(self):
        assert EvaluationGrid.uniform(2).divisions == 1
        assert EvaluationGrid.uniform(1001).divisions == 1000

    @pytest.mark.parametrize("count", [2, 3, 1001])
    def test_uniform_points_are_linspace(self, count):
        grid = EvaluationGrid.uniform(count)
        assert np.array_equal(grid.points, np.linspace(0.0, 1.0, count))
        assert grid.divisions == count - 1

    def test_uniform_grid_builds_its_points_once(self):
        # a second linspace to check the first against would double the peak (17.0 MB)
        count = 10**6 + 1
        tracemalloc.start()
        try:
            EvaluationGrid.uniform(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count + 64 * 1024

    def test_explicit_points_have_none(self):
        assert EvaluationGrid(np.linspace(0.0, 1.0, 11)).divisions is None

    def test_divisions_must_match_point_count(self):
        # only uniform() sets divisions, so no grid can claim a count its points lack
        with pytest.raises(TypeError):
            EvaluationGrid(np.linspace(0.0, 1.0, 11), divisions=5)
        grid = EvaluationGrid.uniform(11)
        assert grid.points.size == grid.divisions + 1

    def test_divisions_must_match_the_uniform_points(self):
        # the FFT routes read divisions alone: explicit points never take them, even when uniform
        assert EvaluationGrid(np.array([0.0, 0.5, 1.0])).divisions is None
        grid = EvaluationGrid.uniform(3)
        assert np.array_equal(grid.points, np.arange(grid.divisions + 1) / grid.divisions)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # every comparison with NaN is False, so only an explicit check stops it
        with pytest.raises(ValueError, match="finite"):
            EvaluationGrid(np.array([0.0, bad, 1.0]))


class TestGaussianBaseline:
    def test_standard_normal_peak(self):
        est = gaussian_kde_baseline([0.0], 1.0)
        assert est.values[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_boundary_mass_leaks(self):
        # half of each boundary kernel's mass lies outside [0, 1]
        est = gaussian_kde_baseline([0.0, 1.0], 0.01, EvaluationGrid.uniform(4001))
        assert est.mass() < 1.0 - 0.3

    def test_symmetric_about_interior_sample(self):
        grid = EvaluationGrid.uniform(1001)
        est = gaussian_kde_baseline([0.5], 1e-3, grid)
        assert est.values == pytest.approx(est.values[::-1], abs=1e-12)

    def test_interior_mass_nearly_one_for_central_data(self):
        est = gaussian_kde_baseline([0.5], 1e-3, EvaluationGrid.uniform(4001))
        assert est.mass() == pytest.approx(1.0, abs=1e-8)


class TestCosineBaseline:
    def test_unit_mass_for_any_sample(self):
        rng = np.random.default_rng(0)
        grid = EvaluationGrid.uniform(2001)
        for t in (1e-3, 0.05, 2.0):
            est = cosine_kde(rng.random(37), t, grid)
            assert est.mass() == pytest.approx(1.0, abs=1e-9)

    def test_center_sample_gives_even_symmetry(self):
        est = cosine_kde([0.5], 0.05)
        assert est.values == pytest.approx(est.values[::-1], abs=1e-12)

    def test_large_time_flattens_to_uniform(self):
        est = cosine_kde([0.123, 0.9], 30.0)
        assert np.abs(est.values - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("grid", [None, EvaluationGrid(np.array([0.0, 0.3, 1.0]))])
    def test_huge_time_gives_its_value_at_a_time_where_every_weight_is_zero(self, grid):
        # k^2 pi^2 t overflowed to inf at t = 1e308; every weight is 0 from t of about 151
        samples = np.random.default_rng(0).random(100)
        assert np.array_equal(cosine_kde(samples, 1e308, grid).values, cosine_kde(samples, 1e3, grid).values)

    def test_zero_boundary_slopes(self):
        grid = EvaluationGrid.uniform(4001)
        est = cosine_kde([0.3, 0.8], 0.02, grid)
        h = grid.points[1]
        slope0 = (est.values[1] - est.values[0]) / h
        slope1 = (est.values[-1] - est.values[-2]) / h
        assert abs(slope0) < 0.1
        assert abs(slope1) < 0.1


class TestErrorMetrics:
    # the sweep's grid L2 and sup norms of an estimate minus the truth
    def test_zero_for_exact_match(self):
        grid = EvaluationGrid.uniform(101)
        l2, linf = _error_norms(np.ones(101) - np.ones(101), grid.points)
        assert l2 == 0.0
        assert linf == 0.0

    def test_constant_offset(self):
        grid = EvaluationGrid.uniform(101)
        l2, linf = _error_norms(np.full(101, 1.25) - np.ones(101), grid.points)
        assert l2 == pytest.approx(0.25, rel=1e-12)
        assert linf == pytest.approx(0.25, rel=1e-12)

    def test_sine_difference_l2(self):
        grid = EvaluationGrid.uniform(1001)
        l2, _ = _error_norms(np.sin(2.0 * math.pi * grid.points), grid.points)
        assert l2 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_grid_mismatch_rejected(self):
        grid = EvaluationGrid.uniform(101)
        with pytest.raises(ValueError):
            _error_norms(np.ones(100), grid.points)

    def test_report_carries_context(self):
        rows = run_mise_experiment(parabolic(), "linked", [42], reps=1, bandwidth_rule="fixed", fixed_t=0.01, seed=7)
        assert [(row.method, row.n, row.reps) for row in rows] == [("linked", 42, 1)]
        assert rows[0].mean_ise == pytest.approx(rows[0].mean_l2**2, rel=1e-12)


class TestRateFit:
    def test_exact_power_law(self):
        assert rate_fit([100, 1000], [1e-2, 1e-3]) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_errors_give_zero_slope(self):
        assert rate_fit([10, 100, 1000], [0.5, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(1)
        ns = np.geomspace(100, 10**4, 5)
        errors = 3.0 * ns ** (-0.8) * (1.0 + 0.01 * rng.standard_normal(5))
        assert -0.85 <= rate_fit(ns, errors) <= -0.75

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            rate_fit([10, 100], [0.1, -0.2])
        with pytest.raises(ValueError):
            rate_fit([10, 100, 1000], [0.1, 0.2])
        with pytest.raises(ValueError):
            rate_fit([10], [0.1])

    @pytest.mark.parametrize(
        "ns, errors",
        [
            ([10, 100], [0.1, math.nan]),
            ([10, 100], [0.1, math.inf]),
            ([10, math.inf], [0.1, 0.01]),
            ([10, math.nan], [0.1, 0.01]),
        ],
    )
    def test_non_finite_inputs_rejected(self, ns, errors):
        with pytest.raises(ValueError, match="finite"):
            rate_fit(ns, errors)

    def test_one_distinct_size_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            rate_fit([10, 10], [0.1, 0.2])
