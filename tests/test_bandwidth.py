"""Bandwidth rules, AMISE formulas, and the boundary-ratio estimator."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkedkde import (
    DegenerateSampleError,
    FlatDensityError,
    RatioEstimationError,
    SeriesConfig,
    SummationControl,
    TargetDensityInfo,
    amise_value,
    beta_mixture,
    boundary_bias_factor,
    empirical_transforms,
    estimate_r,
    eval_K1,
    eval_K1_dx,
    eval_series_solution,
    lscv_bandwidth,
    lscv_objective,
    oracle_amise_bandwidth,
    parabolic,
    sample_synthetic,
    silverman_bandwidth,
    trimodal,
    truncation_bound,
)
from linkedkde import bandwidth
from linkedkde.bandwidth import DEFAULT_LSCV_GRID, _diagonal_mean


def _self_kernel(r, x, t):
    """K(r; x, x, t) along the diagonal, summed from heat kernels: the oracle for LSCV."""
    q = (1.0 - r) / (1.0 + r)
    out = np.full_like(x, eval_K1(0.0, t))
    if r != 1.0:
        out = out + eval_K1(2.0 * x, t) * (2.0 * x - 1.0) * q
        out = out + t * q * eval_K1_dx(2.0 * x, t)
    return out


def reference_lscv(samples, r, t_grid, grid_size=2001):
    """LSCV curve with the series evaluated at every sample, plus the terms' scale."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    ctl = SummationControl(tol=1e-12)
    cfg = SeriesConfig(r=r, truncation=ctl)
    tr = empirical_transforms(x, truncation_bound(min(t_grid), ctl.tol))
    xs = np.linspace(0.0, 1.0, grid_size)
    scores, scales = [], []
    for t in t_grid:
        f_grid = eval_series_solution(tr, cfg, t, xs)
        loo = (n * eval_series_solution(tr, cfg, t, x) - _self_kernel(r, x, t)) / (n - 1.0)
        square = np.trapezoid(f_grid * f_grid, xs)
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
        with pytest.raises(DegenerateSampleError):
            silverman_bandwidth([0.4] * 10)

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
        assert a.diagnostics["objective"] == pytest.approx(b.diagnostics["objective"], abs=0.0)

    def test_interior_minimum_for_curved_target(self):
        # brute-force objective for a target with genuine large-t bias has an
        # interior argmin in 18 of these 20 seeded draws
        t_grid = np.geomspace(1e-4, 1.0, 30)
        interior = 0
        for seed in range(20):
            samples = sample_synthetic(parabolic(), 500, seed=seed)
            sel = lscv_bandwidth(samples, 2.0, t_grid)
            interior += sel.diagnostics["argmin_index"] not in (0, t_grid.size - 1)
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
            endpoint += sel.diagnostics["argmin_index"] == t_grid.size - 1
        assert endpoint >= 5

    def test_tie_broken_toward_larger_time(self):
        # beyond t ~ 50 every mode has decayed below double precision, so
        # the objective is exactly flat and the largest candidate wins
        samples = sample_synthetic(parabolic(), 100, seed=0)
        sel = lscv_bandwidth(samples, 2.0, [50.0, 60.0, 70.0])
        obj = sel.diagnostics["objective"]
        assert obj[0] == obj[1] == obj[2]
        assert sel.t == 70.0

    def test_objective_matches_standalone_evaluation(self):
        samples = sample_synthetic(trimodal(), 80, seed=1)
        t_grid = [0.003, 0.01, 0.05]
        sel = lscv_bandwidth(samples, 1.0, t_grid)
        direct = [lscv_objective(samples, 1.0, t) for t in t_grid]
        assert sel.diagnostics["objective"] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 1e6])
    def test_objective_matches_evaluation_at_samples(self, r):
        samples = np.concatenate([sample_synthetic(parabolic(), 300, seed=4).values, [0.0, 1.0]])
        t_grid = np.geomspace(1e-4, 1.0, 30)
        sel = lscv_bandwidth(samples, r, t_grid)
        ref, _ = reference_lscv(samples, r, t_grid)
        assert sel.diagnostics["objective"] == pytest.approx(ref, rel=1e-13, abs=0.0)
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
        assert np.all(np.abs(sel.diagnostics["objective"] - ref) <= tol)
        best = sel.diagnostics["argmin_index"]
        assert ref[best] <= ref.min() + tol[best]

    def test_non_finite_score_raises_naming_the_time(self, monkeypatch):
        # a diagonal term that turns NaN from t = 0.1 on makes those scores NaN
        samples = sample_synthetic(parabolic(), 500, seed=0)
        t_grid = np.geomspace(1e-4, 1.0, 30)

        def nan_from_tenth(tr, r, t):
            return _diagonal_mean(tr, r, t) * (np.nan if t >= 0.1 else 1.0)

        monkeypatch.setattr(bandwidth, "_diagonal_mean", nan_from_tenth)
        first_bad = t_grid[t_grid >= 0.1][0]
        with pytest.raises(FloatingPointError, match=rf"not finite at t={first_bad:.6g} for r=2 \(8 of 30"):
            lscv_bandwidth(samples, 2.0, t_grid)

    @pytest.mark.parametrize("r", [0.0, 1e-6, 0.5, 1.0, 2.0, 1e6, 1e308])
    def test_diagonal_from_transforms_matches_kernel_sum(self, r):
        samples = np.concatenate([sample_synthetic(parabolic(), 400, seed=6).values, [0.0, 0.5, 1.0]])
        n_modes = truncation_bound(DEFAULT_LSCV_GRID.min(), 1e-12)
        tr = empirical_transforms(samples, 2 * n_modes)
        for t in DEFAULT_LSCV_GRID:
            oracle = _self_kernel(r, samples, t).mean()
            assert _diagonal_mean(tr, r, t) == pytest.approx(oracle, rel=1e-12, abs=0.0)

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

    def test_huge_ratio_gives_finite_curve(self):
        samples = sample_synthetic(parabolic(), 500, seed=0)
        t_grid = np.geomspace(1e-4, 1.0, 30)
        sel = lscv_bandwidth(samples, 1e308, t_grid)
        assert np.all(np.isfinite(sel.diagnostics["objective"]))
        # q = (1-r)/(1+r) rounds to -1 beyond r ~ 1e16, so the curve has converged
        far = lscv_bandwidth(samples, 1e20, t_grid)
        assert sel.diagnostics["objective"] == pytest.approx(far.diagnostics["objective"], rel=1e-12)

    def test_identical_samples_rejected(self):
        with pytest.raises(DegenerateSampleError):
            lscv_bandwidth([0.5] * 10, 1.0, [0.01])
        with pytest.raises(DegenerateSampleError):
            lscv_objective([0.5] * 10, 1.0, 0.01)

    def test_bad_grid_rejected(self):
        samples = [0.1, 0.5, 0.9]
        with pytest.raises(ValueError):
            lscv_bandwidth(samples, 1.0, [])
        with pytest.raises(ValueError):
            lscv_bandwidth(samples, 1.0, [0.1, -0.2])


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
