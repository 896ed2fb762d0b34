"""Series solution: transforms, truncation rule, oracle agreement, PDE facts."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from linkedkde import (
    SeriesConfig,
    SummationControl,
    TruncationError,
    empirical_transforms,
    eval_linked_kernel,
    eval_series_solution,
    point_mass_transforms,
    transforms_from_functions,
    truncation_bound,
)
from linkedkde.series_solver import _ELEMENT_BUDGET, _TRANSFORM_CHUNK, _block_size

CTL12 = SummationControl(tol=1e-12)


def uniform_transforms(N):
    # closed-form transforms of the uniform density on [0, 1]
    def c0(k):
        out = np.ones_like(k)
        out[1:] = 0.0
        return out

    def s0(k):
        return np.zeros_like(k)

    def s1(k):
        out = np.zeros_like(k)
        out[1:] = -1.0 / k[1:]
        return out

    return transforms_from_functions(c0, s0, s1, N)


def test_point_mass_at_zero_transforms():
    tr = empirical_transforms([0.0], 4)
    assert tr.c0 == pytest.approx(np.ones(5))
    assert tr.s0 == pytest.approx(np.zeros(5))
    assert tr.s1 == pytest.approx(np.zeros(5))


def test_point_mass_quarter_transforms():
    tr = empirical_transforms([0.25], 1)
    assert tr.c0[1] == pytest.approx(math.cos(math.pi / 2.0), abs=1e-16)
    assert tr.s0[1] == pytest.approx(1.0)
    assert tr.s1[1] == pytest.approx(0.25)


def test_transforms_are_linear_in_the_sample_union():
    a = np.array([0.1, 0.4, 0.9])
    b = np.array([0.2, 0.6])
    ta = empirical_transforms(a, 6)
    tb = empirical_transforms(b, 6)
    tu = empirical_transforms(np.concatenate([a, b]), 6)
    w = a.size / (a.size + b.size)
    assert tu.c0 == pytest.approx(w * ta.c0 + (1 - w) * tb.c0, abs=1e-15)
    assert tu.s0 == pytest.approx(w * ta.s0 + (1 - w) * tb.s0, abs=1e-15)
    assert tu.s1 == pytest.approx(w * ta.s1 + (1 - w) * tb.s1, abs=1e-15)


def test_c1_is_sample_mean_of_x_cos_kx():
    x = np.concatenate([np.random.default_rng(5).random(5000), [0.0, 1.0]])
    tr = empirical_transforms(x, 17)
    k = 2.0 * math.pi * np.arange(18)
    direct = (x[None, :] * np.cos(np.outer(k, x))).mean(axis=1)
    assert tr.c1 == pytest.approx(direct, rel=1e-12, abs=1e-15)
    assert tr.c1[0] == pytest.approx(x.mean(), rel=1e-15)
    assert uniform_transforms(5).c1 is None


def direct_transforms(x, N):
    """Means of cos, sin, X sin and X cos of k_n X, with n X reduced mod 1 exactly.

    Rounding k_n X in double alone would cost up to N * 1e-16, so the phase
    is formed in rational arithmetic and only its fraction of a turn is rounded.
    """
    x = np.asarray(x, dtype=float)
    exact = [Fraction(float(v)) for v in x]
    turns = np.array([[float(n * v % 1) for v in exact] for n in range(N + 1)])
    c, s = np.cos(2.0 * math.pi * turns), np.sin(2.0 * math.pi * turns)
    return c.mean(axis=1), s.mean(axis=1), (s * x).mean(axis=1), (c * x).mean(axis=1)


@pytest.mark.parametrize("N", [0, 1, 63, 64, 65, 127, 128, 1319])
def test_recurrence_transforms_match_direct_formula(N):
    rng = np.random.default_rng(N)
    samples = np.concatenate([[0.0, 1.0, 0.5], rng.random(5)])
    cases = [(samples, empirical_transforms(samples, N))]
    cases += [([y], point_mass_transforms(y, N)) for y in (0.0, 1.0, 0.3, float(rng.random()))]
    for x, tr in cases:
        for got, want in zip((tr.c0, tr.s0, tr.s1, tr.c1), direct_transforms(x, N)):
            assert np.abs(got - want).max() <= 1e-13
    # at X = 0 and X = 1 every phase is exactly zero
    for y in (0.0, 1.0):
        tr = point_mass_transforms(y, N)
        assert np.array_equal(tr.c0, np.ones(N + 1)) and not np.any(tr.s0)


def test_transform_magnitudes_bounded_for_probability_data():
    rng = np.random.default_rng(2)
    tr = empirical_transforms(rng.random(257), 40)
    assert tr.c0[0] == 1.0
    for arr in (tr.c0, tr.s0, tr.s1):
        assert np.abs(arr).max() <= 1.0 + 1e-15


def test_uniform_density_is_stationary_in_periodic_case():
    tr = uniform_transforms(truncation_bound(0.01, CTL12.tol))
    cfg = SeriesConfig(r=1.0, truncation=CTL12)
    xs = np.linspace(0.0, 1.0, 21)
    for t in (0.01, 0.1, 1.0):
        assert eval_series_solution(tr, cfg, t, xs) == pytest.approx(np.ones(21), abs=1e-12)


def test_affine_compatible_profile_is_time_invariant():
    # l(x) = (4 - 2x)/3 satisfies l(0) = 2 l(1); it is a fixed profile at r = 2
    def c0(k):
        out = np.ones_like(k)
        out[1:] = 0.0
        return out

    def s0(k):
        out = np.zeros_like(k)
        out[1:] = 2.0 / (3.0 * k[1:])
        return out

    def s1(k):
        out = np.zeros_like(k)
        out[1:] = -2.0 / (3.0 * k[1:])
        return out

    cfg = SeriesConfig(r=2.0, truncation=CTL12)
    xs = np.linspace(0.0, 1.0, 41)
    for t in (0.01, 0.05, 0.4):
        tr = transforms_from_functions(c0, s0, s1, truncation_bound(t, CTL12.tol))
        vals = eval_series_solution(tr, cfg, t, xs)
        assert vals == pytest.approx((4.0 - 2.0 * xs) / 3.0, abs=1e-11)


def test_point_mass_series_matches_kernel_evaluation():
    tr = point_mass_transforms(0.5, truncation_bound(0.02, CTL12.tol))
    cfg = SeriesConfig(r=2.0, truncation=CTL12)
    got = eval_series_solution(tr, cfg, 0.02, 0.3)
    assert got == pytest.approx(eval_linked_kernel(2.0, 0.3, 0.5, 0.02), abs=1e-9)


@pytest.mark.parametrize("t", [1e-4, 0.05])
def test_blocked_evaluation_equals_per_block_calls(t):
    tr = empirical_transforms(np.random.default_rng(8).random(300), truncation_bound(t, CTL12.tol))
    cfg = SeriesConfig(r=2.0, truncation=CTL12)
    xs = np.linspace(0.0, 1.0, 2 * _TRANSFORM_CHUNK + 17)
    blocks = [
        eval_series_solution(tr, cfg, t, xs[start : start + _TRANSFORM_CHUNK])
        for start in range(0, xs.size, _TRANSFORM_CHUNK)
    ]
    assert np.array_equal(eval_series_solution(tr, cfg, t, xs), np.concatenate(blocks))


def test_block_size_keeps_temporaries_in_budget():
    # up to N = 255 the blocks stay at the fixed chunk; beyond, they shrink
    assert _block_size(0) == _block_size(255) == _TRANSFORM_CHUNK
    for N in (256, 1319, 9324):
        step = _block_size(N)
        assert step < _TRANSFORM_CHUNK
        assert (N + 1) * step <= _ELEMENT_BUDGET < (N + 1) * (step + 1)
    assert _block_size(10 * _ELEMENT_BUDGET) == 1


def test_many_modes_stay_within_memory_budget():
    # at N = 3000 one unblocked mode-by-4096 array would take 98 MB
    samples = np.random.default_rng(2).random(5000)
    budget_mb = _ELEMENT_BUDGET * 8 / 2**20
    tracemalloc.start()
    try:
        tr = empirical_transforms(samples, 3000)
        _, transform_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        vals = eval_series_solution(tr, SeriesConfig(r=2.0), 1e-6, samples)
        _, eval_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert transform_peak / 2**20 <= 5 * budget_mb
    assert eval_peak / 2**20 <= 5 * budget_mb
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 10.0])
def test_oracle_triangle_over_grid(r):
    cfg = SeriesConfig(r=r, truncation=CTL12)
    xs = np.linspace(0.0, 1.0, 101)
    for t in (1e-3, 1e-2, 0.1, 1.0):
        tr = point_mass_transforms(0.37, truncation_bound(t, CTL12.tol))
        series = eval_series_solution(tr, cfg, t, xs)
        kernel = eval_linked_kernel(r, xs, 0.37, t)
        assert np.abs(series - kernel).max() <= 1e-9


def test_truncation_bound_examples():
    assert truncation_bound(10.0, 1e-12) <= 2
    assert truncation_bound(0.01, 1e-12) == 13
    # derived by solving (1 + k t) exp(-k^2 t/2) * 8 < 1e-12 for k = 2 pi N
    assert truncation_bound(0.001, 1e-12) == 39


def test_truncation_bound_monotone_in_time():
    ts = np.geomspace(1e-4, 10.0, 30)
    bounds = [truncation_bound(t, 1e-12) for t in ts]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_truncation_bound_scales_like_inverse_sqrt_time():
    n_small = truncation_bound(1e-3, 1e-12)
    n_large = truncation_bound(1e-1, 1e-12)
    assert n_small / n_large == pytest.approx(10.0, rel=0.35)


def test_insufficient_modes_raise():
    tr = point_mass_transforms(0.4, 3)
    with pytest.raises(TruncationError):
        eval_series_solution(tr, SeriesConfig(r=1.0, truncation=CTL12), 1e-3, 0.5)


def test_linked_boundary_condition_exact():
    tr = empirical_transforms([0.21, 0.68, 0.9], truncation_bound(0.02, CTL12.tol))
    for r in (0.0, 0.5, 2.0, 7.0):
        cfg = SeriesConfig(r=r, truncation=CTL12)
        v0 = eval_series_solution(tr, cfg, 0.02, 0.0)
        v1 = eval_series_solution(tr, cfg, 0.02, 1.0)
        assert v0 == pytest.approx(r * v1, rel=1e-10, abs=1e-13)


def test_endpoint_slopes_agree():
    tr = empirical_transforms([0.21, 0.68, 0.9], truncation_bound(0.05, CTL12.tol))
    cfg = SeriesConfig(r=2.0, truncation=CTL12)
    h = 1e-5
    f = lambda x: eval_series_solution(tr, cfg, 0.05, np.asarray(x, dtype=float))
    slope0 = (f([h])[0] - f([0.0])[0]) / h
    slope1 = (f([1.0])[0] - f([1.0 - h])[0]) / h
    assert abs(slope0 - slope1) <= 50.0 * h + 1e-8


def test_pde_residual_second_order():
    tr = point_mass_transforms(0.43, truncation_bound(0.04, CTL12.tol))
    cfg = SeriesConfig(r=2.0, truncation=CTL12)
    t = 0.05
    residuals = []
    for h in (1e-2, 5e-3, 2.5e-3):
        xs = np.arange(h, 1.0 - h / 2.0, h)
        mid = eval_series_solution(tr, cfg, t, xs)
        f_t = (
            eval_series_solution(tr, cfg, t + h, xs)
            - eval_series_solution(tr, cfg, t - h, xs)
        ) / (2.0 * h)
        f_xx = (
            eval_series_solution(tr, cfg, t, xs + h)
            - 2.0 * mid
            + eval_series_solution(tr, cfg, t, xs - h)
        ) / (h * h)
        residuals.append(np.abs(f_t - 0.5 * f_xx).max())
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.25)
    assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.25)


def test_series_mass_equals_zeroth_transform():
    tr = empirical_transforms([0.1, 0.5, 0.52, 0.97], truncation_bound(0.01, CTL12.tol))
    cfg = SeriesConfig(r=3.0, truncation=CTL12)
    xs = np.linspace(0.0, 1.0, 2001)
    mass = np.trapezoid(eval_series_solution(tr, cfg, 0.01, xs), xs)
    assert mass == pytest.approx(tr.c0[0], abs=1e-8)


def test_nonseparable_term_active_exactly_when_ratio_differs_from_one():
    # Rebuild the series by hand from the transforms, with and without the
    # time-linear generalized-eigenfunction term, and compare to the library.
    y, t, x = 0.37, 0.02, 0.61
    N = truncation_bound(t, CTL12.tol)
    tr = point_mass_transforms(y, N)
    k = tr.modes[1:]
    decay = np.exp(-0.5 * k * k * t)

    def manual(r, with_linear_term):
        lin = r + (1.0 - r) * x
        sin_coef = tr.s0[1:] - (1.0 - r) * tr.s1[1:]
        if with_linear_term:
            sin_coef = sin_coef - k * t * (1.0 - r) * tr.c0[1:]
        series = tr.c0[1:] * lin * np.cos(k * x) + sin_coef * np.sin(k * x)
        return (2.0 / (1.0 + r)) * tr.c0[0] * lin + (4.0 / (1.0 + r)) * (decay * series).sum()

    for r in (0.5, 2.0):
        cfg = SeriesConfig(r=r, truncation=CTL12)
        lib = eval_series_solution(tr, cfg, t, x)
        assert lib == pytest.approx(manual(r, True), abs=1e-13)
        assert abs(lib - manual(r, False)) > 1e-6
    cfg = SeriesConfig(r=1.0, truncation=CTL12)
    lib = eval_series_solution(tr, cfg, t, x)
    assert lib == pytest.approx(manual(1.0, False), abs=1e-13)
