"""Bandwidth rules, AMISE formulas, and the boundary-ratio estimator."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkedkde import (
    BandwidthSelection,
    DegenerateSampleError,
    EvaluationGrid,
    FlatDensityError,
    RatioEstimationError,
    SampleSet,
    TargetDensityInfo,
    amise_value,
    beta_mixture,
    empirical_transforms,
    estimate_density,
    estimate_r,
    eval_K1,
    eval_series_solution,
    lscv_bandwidth,
    oracle_amise_bandwidth,
    parabolic,
    sample_synthetic,
    silverman_bandwidth,
    trimodal,
    truncation_bound,
)
from linkedkde import bandwidth, series_solver
from linkedkde.bandwidth import DEFAULT_LSCV_GRID, boundary_bias_factor
from linkedkde.heat_kernels import eval_K1_dx
from linkedkde.series_solver import _SpectralFit


def _self_kernel(r, x, t):
    """K(r; x, x, t) along the diagonal, summed from heat kernels: the oracle for LSCV."""
    q = (1.0 - r) / (1.0 + r)
    out = np.full_like(x, eval_K1(0.0, t))
    if r != 1.0:
        out = out + eval_K1(2.0 * x, t) * (2.0 * x - 1.0) * q
        out = out + t * q * eval_K1_dx(2.0 * x, t)
    return out


def reference_lscv(samples, r, t_grid):
    """LSCV curve with the series evaluated at every sample, plus the terms' scale.

    int f^2 is taken by Gauss-Legendre quadrature on 4N + 64 nodes, exact
    for the series (a trigonometric polynomial of degree 2N times a
    quadratic) up to round-off. leggauss slows down at thousands of nodes,
    so callers keep t >= 1e-4.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    n_modes = truncation_bound(min(t_grid))
    tr = empirical_transforms(x, n_modes)
    nodes, weights = np.polynomial.legendre.leggauss(4 * n_modes + 64)
    xs, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    scores, scales = [], []
    for t in t_grid:
        f_nodes = eval_series_solution(tr, r, t, xs)
        loo = (n * eval_series_solution(tr, r, t, x) - _self_kernel(r, x, t)) / (n - 1.0)
        square = weights @ (f_nodes * f_nodes)
        scores.append(square - 2.0 * loo.mean())
        scales.append(square + 2.0 * abs(loo.mean()))
    return np.array(scores), np.array(scales)


class TestSilverman:
    def test_two_point_sample(self):
        sel = silverman_bandwidth([0.0, 1.0])
        sigma = math.sqrt(0.5)  # sample std with one degree of freedom
        assert sel.t == pytest.approx(((4.0 / 6.0) ** 0.2 * sigma) ** 2, rel=1e-12)
        assert sel.rule == "silverman"

    def test_degenerate_sample_rejected(self):
        # 30 copies of 0.3 have a std of 5.6e-17 from rounding, not 0; one
        # step of rounding in 30 samples is no spread either (it gave t = 8.9e-34)
        for samples in ([0.4] * 10, [0.3] * 30, [0.3] * 29 + [np.nextafter(0.3, 1.0)]):
            with pytest.raises(DegenerateSampleError, match="^sample has zero spread$"):
                silverman_bandwidth(samples)

    def test_scaling_exponent(self):
        # tiling keeps the spread (up to the ddof correction), so the ratio
        # isolates the n^{-2/5} factor
        rng = np.random.default_rng(0)
        base = rng.random(100)
        big = np.tile(base, 100)
        t_small = silverman_bandwidth(base).t
        t_big = silverman_bandwidth(big).t
        assert t_big / t_small == pytest.approx(100.0 ** (-0.4), rel=0.02)

    def test_robust_scale_uses_iqr_for_heavy_tails(self):
        # one outlier inflates the std but barely moves the IQR
        x = np.concatenate([np.full(20, 0.45), np.full(20, 0.55), [1.0]])
        sel = silverman_bandwidth(x)
        q75, q25 = np.percentile(x, [75.0, 25.0])
        sigma = (q75 - q25) / 1.34
        assert sigma < np.std(x, ddof=1)
        assert sel.t == pytest.approx(((4.0 / (3.0 * x.size)) ** 0.2 * sigma) ** 2)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 100, 4000, 4001, 100_001])
    @pytest.mark.parametrize("order", ["random", "sorted", "reversed", "tied"])
    def test_quartiles_match_numpy_percentile_bit_for_bit(self, n, order):
        # x^4 spreads the quartiles so that IQR / 1.34 is below the std and sets t
        x = np.random.default_rng(n).random(n) ** 4
        if order == "sorted":
            x = np.sort(x)
        elif order == "reversed":
            x = np.sort(x)[::-1].copy()
        elif order == "tied":
            x = np.round(x * 6.0) / 6.0
        q75, q25 = np.percentile(x, [75.0, 25.0])
        sigma = float(np.std(x, ddof=1))
        floor = 8 * float(np.spacing(np.abs(x).max()))
        if float(q75 - q25) > floor:
            sigma = min(sigma, float(q75 - q25) / 1.34)
        bw = (4.0 / (3.0 * n)) ** 0.2 * sigma
        assert silverman_bandwidth(x).t == bw * bw
        ordered = np.sort(x)
        for q, want in ((0.25, q25), (0.75, q75)):
            assert bandwidth._interpolate(ordered, (n - 1) * q) == want


class TestLSCV:
    def test_single_candidate_returned(self):
        samples = sample_synthetic(parabolic(), 50, seed=0)
        sel = lscv_bandwidth(samples, 2.0, [0.037])
        assert sel.t == 0.037
        assert sel.rule == "lscv"

    def test_deterministic_for_fixed_seed(self):
        t_grid = np.geomspace(1e-4, 1.0, 12)
        a = lscv_bandwidth(sample_synthetic(parabolic(), 200, seed=7), 2.0, t_grid)
        b = lscv_bandwidth(sample_synthetic(parabolic(), 200, seed=7), 2.0, t_grid)
        assert a.t == b.t
        assert a.objective == pytest.approx(b.objective, abs=0.0)

    def test_interior_minimum_for_curved_target(self):
        # brute-force objective for a target with genuine large-t bias has an
        # interior argmin in 18 of these 20 seeded draws
        t_grid = np.geomspace(1e-4, 1.0, 30)
        interior = 0
        for seed in range(20):
            samples = sample_synthetic(parabolic(), 500, seed=seed)
            sel = lscv_bandwidth(samples, 2.0, t_grid)
            interior += sel.argmin_index not in (0, t_grid.size - 1)
        assert interior >= 16

    def test_stationary_profile_often_selects_right_endpoint(self):
        # the a=2 mixture with its true ratio IS the stationary profile, so
        # smoothing never hurts and the objective plateaus: the right
        # endpoint wins in a large share of draws
        t_grid = np.geomspace(1e-4, 1.0, 30)
        endpoint = 0
        for seed in range(20):
            samples = sample_synthetic(beta_mixture(2.0), 500, seed=seed)
            sel = lscv_bandwidth(samples, 0.5, t_grid)
            endpoint += sel.argmin_index == t_grid.size - 1
        assert endpoint >= 5

    def test_tie_broken_toward_larger_time(self):
        # beyond t ~ 50 every mode has decayed below double precision, so
        # the objective is exactly flat and the largest candidate wins
        samples = sample_synthetic(parabolic(), 100, seed=0)
        sel = lscv_bandwidth(samples, 2.0, [50.0, 60.0, 70.0])
        obj = sel.objective
        assert obj[0] == obj[1] == obj[2]
        assert sel.t == 70.0

    def test_objective_matches_standalone_evaluation(self):
        samples = sample_synthetic(trimodal(), 80, seed=1)
        t_grid = [0.003, 0.01, 0.05]
        sel = lscv_bandwidth(samples, 1.0, t_grid)
        direct = [lscv_bandwidth(samples, 1.0, [t]).objective[0] for t in t_grid]
        assert sel.objective == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0, 1e6, 1e308])
    def test_batched_scores_match_one_at_a_time(self, r):
        # one fit at the smallest time scores the whole grid in one batch;
        # a one-candidate grid fits each time on its own, at its own N
        samples = np.concatenate([sample_synthetic(parabolic(), 300, seed=5).values, [0.0, 1.0]])
        sel = lscv_bandwidth(samples, r, DEFAULT_LSCV_GRID)
        single = [lscv_bandwidth(samples, r, [t]).objective[0] for t in DEFAULT_LSCV_GRID]
        assert np.abs(sel.objective - single).max() <= 1e-12

    def test_batched_scores_on_unsorted_grid_with_repeats(self):
        samples = sample_synthetic(trimodal(), 200, seed=3)
        t_grid = np.array([0.02, 1e-3, 0.3, 1e-3, 5e-4, 0.02, 1.0, 5e-4])
        fit = _SpectralFit.from_samples(samples, 2.0, truncation_bound(t_grid.min()), lscv=True)
        batched = fit.lscv_scores(t_grid)
        single = [lscv_bandwidth(samples, 2.0, [t]).objective[0] for t in t_grid]
        assert np.abs(batched - single).max() <= 1e-12
        assert batched[1] == batched[3] and batched[4] == batched[7] and batched[0] == batched[5]
        sel = lscv_bandwidth(samples, 2.0, t_grid)
        assert np.array_equal(sel.t_grid, np.sort(t_grid))
        assert np.abs(sel.objective - batched[np.argsort(t_grid)]).max() <= 1e-12

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 1e6])
    def test_objective_matches_evaluation_at_samples(self, r):
        samples = np.concatenate([sample_synthetic(parabolic(), 300, seed=4).values, [0.0, 1.0]])
        t_grid = np.geomspace(1e-4, 1.0, 30)
        sel = lscv_bandwidth(samples, r, t_grid)
        ref, _ = reference_lscv(samples, r, t_grid)
        assert sel.objective == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert sel.t == t_grid[t_grid.size - 1 - int(np.argmin(ref[::-1]))]

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e6)),
        samples=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=3, max_size=40
        ).filter(lambda xs: max(xs) > min(xs)),
    )
    def test_objective_matches_evaluation_at_samples_property(self, r, samples):
        t_grid = [1e-3, 1e-2, 0.1, 1.0]
        sel = lscv_bandwidth(samples, r, t_grid)
        ref, scale = reference_lscv(samples, r, t_grid)
        tol = 1e-12 * scale
        assert np.all(np.abs(sel.objective - ref) <= tol)
        best = sel.argmin_index
        assert ref[best] <= ref.min() + tol[best]

    @pytest.mark.parametrize("r", [0.0, 2.0, 1e6, 1e308])
    def test_long_curve_matches_reference(self, r):
        samples = np.concatenate([sample_synthetic(parabolic(), 100, seed=8).values, [0.0, 1.0]])
        t_grid = np.geomspace(1e-4, 1.0, 500)
        sel = lscv_bandwidth(samples, r, t_grid)
        ref, _ = reference_lscv(samples, r, t_grid)
        assert sel.objective == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert sel.t == t_grid[t_grid.size - 1 - int(np.argmin(ref[::-1]))]

    def test_choice_pinned_on_large_samples(self):
        # argmin indices of the trapezoid-integrated scores this closed form
        # replaced, which moved them by at most 4e-7
        chosen = []
        for seed in range(5):
            samples = sample_synthetic(parabolic(), 10_000, seed=seed)
            sel = lscv_bandwidth(samples, estimate_r(samples), DEFAULT_LSCV_GRID)
            chosen.append(sel.argmin_index)
        assert chosen == [6, 14, 10, 12, 10]

    def test_memory_bounded_at_tiny_time(self):
        # t = 1e-7 needs N of about 4.2e3 modes; the square integral costs O(N)
        samples = sample_synthetic(parabolic(), 10_000, seed=0)
        assert truncation_bound(1e-7) > 3800
        tracemalloc.start()
        try:
            lscv_bandwidth(samples, 2.0, [1e-7, 1e-3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6

    def test_non_finite_score_raises_naming_the_time(self, monkeypatch):
        # a diagonal term that turns NaN from t = 0.1 on makes those scores NaN
        samples = sample_synthetic(parabolic(), 500, seed=0)
        t_grid = np.geomspace(1e-4, 1.0, 30)

        diagonal_means = _SpectralFit.diagonal_means

        def nan_from_tenth(fit, t, *decay):
            return diagonal_means(fit, t, *decay) * np.where(t >= 0.1, np.nan, 1.0)

        monkeypatch.setattr(_SpectralFit, "diagonal_means", nan_from_tenth)
        first_bad = t_grid[t_grid >= 0.1][0]
        with pytest.raises(FloatingPointError, match=rf"not finite at t={first_bad:.6g} for r=2 \(8 of 30"):
            lscv_bandwidth(samples, 2.0, t_grid)

    @pytest.mark.parametrize("r", [0.0, 1e-6, 0.5, 1.0, 2.0, 1e6, 1e308])
    def test_diagonal_from_transforms_matches_kernel_sum(self, r):
        samples = np.concatenate([sample_synthetic(parabolic(), 400, seed=6).values, [0.0, 0.5, 1.0]])
        fit = _SpectralFit.from_samples(samples, r, truncation_bound(DEFAULT_LSCV_GRID.min()), lscv=True)
        oracle = [_self_kernel(r, samples, t).mean() for t in DEFAULT_LSCV_GRID]
        assert fit.diagonal_means(DEFAULT_LSCV_GRID) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_lscv_never_evaluates_heat_kernels(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LSCV evaluated a heat kernel")

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "linkedkde"]:
            for name in ("eval_K1", "eval_K1_dx"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        samples = sample_synthetic(parabolic(), 500, seed=0)
        sel = lscv_bandwidth(samples, 2.0, DEFAULT_LSCV_GRID)
        assert sel.t in DEFAULT_LSCV_GRID

    def test_lscv_never_evaluates_the_series(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LSCV evaluated the series")

        monkeypatch.setattr(_SpectralFit, "series", forbidden)
        monkeypatch.setattr(series_solver, "_cell_synthesis", forbidden)
        samples = sample_synthetic(parabolic(), 500, seed=0)
        sel = lscv_bandwidth(samples, 2.0, DEFAULT_LSCV_GRID)
        assert sel.t in DEFAULT_LSCV_GRID
        assert np.isfinite(lscv_bandwidth(samples, 0.0, [1e-3]).objective[0])

    def test_huge_time_scores_as_a_time_where_every_weight_is_zero(self):
        # k^2 t overflowed to inf at t = 1e308 (an error under the suite's warning filter)
        samples = sample_synthetic(parabolic(), 100, seed=0)
        assert lscv_bandwidth(samples, 2.0, [1e308]).objective[0] == lscv_bandwidth(samples, 2.0, [1e3]).objective[0]
        huge = lscv_bandwidth(samples, 2.0, [1e-3, 1e308]).objective
        assert np.array_equal(huge, lscv_bandwidth(samples, 2.0, [1e-3, 1e3]).objective)

    def test_huge_ratio_gives_finite_curve(self):
        samples = sample_synthetic(parabolic(), 500, seed=0)
        t_grid = np.geomspace(1e-4, 1.0, 30)
        sel = lscv_bandwidth(samples, 1e308, t_grid)
        assert np.all(np.isfinite(sel.objective))
        # q = (1-r)/(1+r) rounds to -1 beyond r ~ 1e16, so the curve has converged
        far = lscv_bandwidth(samples, 1e20, t_grid)
        assert sel.objective == pytest.approx(far.objective, rel=1e-12)

    def test_identical_samples_rejected(self):
        with pytest.raises(DegenerateSampleError):
            lscv_bandwidth([0.5] * 10, 1.0, [0.01])

    def test_bad_grid_rejected(self):
        samples = [0.1, 0.5, 0.9]
        with pytest.raises(ValueError):
            lscv_bandwidth(samples, 1.0, [])
        with pytest.raises(ValueError):
            lscv_bandwidth(samples, 1.0, [0.1, -0.2])

    @pytest.mark.parametrize("t_grid", [1e-3, [[1e-3, 1e-2]]])
    def test_grid_that_is_not_one_dimensional_rejected(self, t_grid):
        samples = sample_synthetic(parabolic(), 50, seed=0)
        with pytest.raises(ValueError, match="one-dimensional"):
            lscv_bandwidth(samples, 1.0, t_grid)


class TestOracleBandwidth:
    def test_unit_argument_matching_case(self):
        # 2 n sqrt(pi) ||f''||^2 = 1 makes t* = 1
        info = TargetDensityInfo(
            f_second_norm_sq=1.0 / (2.0 * 10.0 * math.sqrt(math.pi)),
            fprime0=0.0,
            fprime1=0.0,
            r_true=1.0,
        )
        sel = oracle_amise_bandwidth(10, info)
        assert sel.t == pytest.approx(1.0, rel=1e-12)
        assert sel.rule == "oracle_matching"

    def test_cosine_target_value(self):
        info = TargetDensityInfo(
            f_second_norm_sq=2.0 * math.pi**4, fprime0=0.0, fprime1=0.0, r_true=1.0
        )
        sel = oracle_amise_bandwidth(1000, info)
        assert sel.t == pytest.approx(
            (2000.0 * math.sqrt(math.pi) * 2.0 * math.pi**4) ** (-0.4), rel=1e-12
        )
        assert sel.t == pytest.approx(4.615e-3, rel=1e-3)

    def test_tent_target_nonmatching_value(self):
        # f = 6x(1-x): gap = -12, A(1) = (2 - sqrt(2))/sqrt(pi)
        info = TargetDensityInfo(
            f_second_norm_sq=144.0, fprime0=6.0, fprime1=-6.0, r_true=1.0
        )
        sel = oracle_amise_bandwidth(1000, info)
        a1 = (2.0 - math.sqrt(2.0)) / math.sqrt(math.pi)
        assert boundary_bias_factor(1.0) == pytest.approx(a1, rel=1e-14)
        assert sel.t == pytest.approx(
            (2000.0 * math.sqrt(math.pi) * a1) ** (-0.5) / 12.0, rel=1e-12
        )
        assert sel.t == pytest.approx(2.435e-3, rel=1e-3)
        assert sel.rule == "oracle_nonmatching"

    def test_infinite_slope_rejected_with_advice(self):
        # beta_mixture with 1 < a < 2 has f'(0) = inf, so the gap is infinite
        info = beta_mixture(1.5).info
        assert math.isinf(info.fprime_gap)
        with pytest.raises(ValueError, match=r"slope f'\(0\) is infinite.*silverman\|lscv"):
            oracle_amise_bandwidth(1000, info)

    def test_infinite_roughness_rejected_with_advice(self):
        info = TargetDensityInfo(f_second_norm_sq=math.inf, fprime0=1.0, fprime1=1.0, r_true=1.0)
        with pytest.raises(ValueError, match=r"infinite.*silverman\|lscv"):
            oracle_amise_bandwidth(1000, info)
        # a finite gap never reads the roughness: a = 2.2 has ||f''||^2 = inf
        info = beta_mixture(2.2).info
        assert math.isinf(info.f_second_norm_sq)
        assert oracle_amise_bandwidth(1000, info).t > 0.0

    @pytest.mark.parametrize("name", ["f_second_norm_sq", "fprime0", "fprime1", "r_true"])
    def test_nan_target_fact_rejected(self, name):
        # an infinite slope or roughness is a fact the oracle reports; NaN is none
        facts = dict(f_second_norm_sq=math.inf, fprime0=math.inf, fprime1=1.0, r_true=1.0)
        TargetDensityInfo(**facts)
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            TargetDensityInfo(**{**facts, name: math.nan})

    def test_flat_density_has_no_optimum(self):
        info = TargetDensityInfo(f_second_norm_sq=0.0, fprime0=0.0, fprime1=0.0, r_true=1.0)
        with pytest.raises(FlatDensityError):
            oracle_amise_bandwidth(100, info)

    def test_scaling_laws(self):
        matching = TargetDensityInfo(
            f_second_norm_sq=3.0, fprime0=0.0, fprime1=0.0, r_true=1.0
        )
        nonmatching = TargetDensityInfo(
            f_second_norm_sq=3.0, fprime0=1.0, fprime1=0.5, r_true=2.0
        )
        for n1, n2 in [(100, 1000), (1000, 10000)]:
            ratio = oracle_amise_bandwidth(n2, matching).t / oracle_amise_bandwidth(n1, matching).t
            assert ratio == pytest.approx((n2 / n1) ** (-0.4), rel=1e-12)
            ratio = (
                oracle_amise_bandwidth(n2, nonmatching).t
                / oracle_amise_bandwidth(n1, nonmatching).t
            )
            assert ratio == pytest.approx((n2 / n1) ** (-0.5), rel=1e-12)


class TestAmiseValue:
    INFO = TargetDensityInfo(
        f_second_norm_sq=2.0 * math.pi**4, fprime0=0.0, fprime1=0.0, r_true=1.0
    )

    def test_minimum_matches_closed_form(self):
        n = 1000
        t_star = oracle_amise_bandwidth(n, self.INFO).t
        norm = self.INFO.f_second_norm_sq
        closed = 5.0 * norm**0.2 / (2.0 ** 2.8 * math.pi**0.4) * n ** (-0.8)
        assert amise_value(t_star, n, self.INFO) == pytest.approx(closed, rel=1e-12)

    def test_strict_local_minimum(self):
        n = 1000
        t_star = oracle_amise_bandwidth(n, self.INFO).t
        at_star = amise_value(t_star, n, self.INFO)
        assert amise_value(t_star * 1.01, n, self.INFO) > at_star
        assert amise_value(t_star * 0.99, n, self.INFO) > at_star

    def test_argmin_over_log_grid(self):
        n = 500
        t_star = oracle_amise_bandwidth(n, self.INFO).t
        at_star = amise_value(t_star, n, self.INFO)
        for t in np.geomspace(t_star / 50.0, t_star * 50.0, 100):
            assert at_star <= amise_value(float(t), n, self.INFO)

    def test_grows_without_bound_in_matching_case(self):
        assert amise_value(1e6, 100, self.INFO) > amise_value(1.0, 100, self.INFO) > 0.0

    def test_nonmatching_uses_boundary_factor(self):
        info = TargetDensityInfo(
            f_second_norm_sq=1.0, fprime0=0.3, fprime1=-0.5, r_true=2.0
        )
        t, n = 0.01, 200
        expected = 1.0 / (2.0 * n * math.sqrt(math.pi * t)) + t**1.5 * (
            boundary_bias_factor(2.0) / 3.0
        ) * (-0.8) ** 2
        assert amise_value(t, n, info) == pytest.approx(expected, rel=1e-14)


class TestBoundaryFactorSymmetry:
    @pytest.mark.parametrize("r", [0.1, 0.5, 2.0, 7.3, 42.0])
    def test_inversion_invariance(self, r):
        assert boundary_bias_factor(r) == pytest.approx(boundary_bias_factor(1.0 / r), rel=1e-12)


class TestEstimateR:
    def test_small_sample_counts(self):
        # n = 4 puts the window width at 1/2; strict inequalities keep 0.5 out
        assert estimate_r([0.05, 0.08, 0.5, 0.95]) == 2.0

    def test_symmetric_sample_near_one(self):
        # ~450 points per boundary window at this size; the ratio noise is
        # about sqrt(2/450), so a quarter is a comfortable band
        rng = np.random.default_rng(3)
        x = rng.random(200_000)
        assert estimate_r(x) == pytest.approx(1.0, abs=0.25)

    def test_zero_denominator_raises_with_numerator(self):
        # window half-width is 1/2 at n = 4, so all four points count left
        with pytest.raises(RatioEstimationError) as exc:
            estimate_r([0.1, 0.2, 0.3, 0.4])
        assert exc.value.left_count == 4

    def test_consistency_for_known_ratio(self):
        target = beta_mixture(2.0)  # true boundary ratio 1/2
        spreads = {}
        for n in (10**3, 10**4, 10**5):
            estimates = [
                estimate_r(sample_synthetic(target, n, seed)) for seed in range(10)
            ]
            spreads[n] = np.std(estimates)
            assert np.mean(estimates) == pytest.approx(0.5, abs=0.2)
        assert spreads[10**5] < spreads[10**3]

    def test_window_hits_required_fraction(self):
        target = beta_mixture(2.0)
        hits = sum(
            0.35 <= estimate_r(sample_synthetic(target, 10**5, seed)) <= 0.65
            for seed in range(10)
        )
        assert hits >= 9


class TestChoose:
    @pytest.mark.parametrize("rule", ["oracle", "silverman", "lscv", "fixed"])
    def test_record_is_the_rules_own_with_the_ratio(self, rule):
        # every sample lies below 0.9 < 1 - n^(-1/2), so the right window is empty
        target = parabolic()
        samples = SampleSet(0.9 * sample_synthetic(target, 400, seed=5).values)
        with pytest.raises(RatioEstimationError) as failure:
            estimate_r(samples)
        want = {
            "oracle": lambda: oracle_amise_bandwidth(samples.n, target.info),
            "silverman": lambda: silverman_bandwidth(samples),
            "lscv": lambda: lscv_bandwidth(samples, 1.0, DEFAULT_LSCV_GRID),
            "fixed": lambda: BandwidthSelection(t=0.01, rule="fixed"),
        }[rule]()
        fixed_t = 0.01 if rule == "fixed" else None
        record = bandwidth._choose(samples, "est", rule, fixed_t, target.info)
        assert (record.t, record.rule) == (want.t, want.rule)
        assert record.r == 1.0
        assert record.r_fallback == str(failure.value)
        passed = bandwidth._choose(samples, 2.0, rule, fixed_t, target.info)
        assert (passed.r, passed.r_fallback) == (2.0, None)
        if rule == "lscv":
            assert np.array_equal(record.objective, want.objective)
            assert np.array_equal(record.t_grid, DEFAULT_LSCV_GRID)
            assert record.t == record.t_grid[record.argmin_index]
            grid = EvaluationGrid.uniform(201)
            density = estimate_density(samples, 1.0, record.t, grid).values
            assert record.fit.evaluate(record.t, grid) == pytest.approx(density, rel=1e-12, abs=1e-12)
        else:
            assert (record.t_grid, record.objective, record.argmin_index, record.fit) == (None,) * 4

    def test_lscv_record_compares_by_identity_and_hashes(self):
        samples = sample_synthetic(parabolic(), 300, seed=2)
        record = lscv_bandwidth(samples, 2.0, DEFAULT_LSCV_GRID)
        again = lscv_bandwidth(samples, 2.0, DEFAULT_LSCV_GRID)
        assert record == record and record != again
        assert hash(record) == hash(record) and len({record, again}) == 2
