"""Benchmark harness: reproducibility, bias oracles, and rate behavior."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from linkedkde import baselines, experiments, heat_kernels, linked_kernel, series_solver
from linkedkde import (
    EvaluationGrid,
    SampleSet,
    TruncationError,
    beta_mixture,
    cosine_kde,
    cosine_bump,
    empirical_transforms,
    estimate_density,
    eval_linked_kernel,
    eval_series_solution,
    expected_cosine_density,
    expected_linked_density,
    gaussian_kde_baseline,
    lscv_bandwidth,
    oracle_amise_bandwidth,
    parabolic,
    parse_target,
    rate_fit,
    rows_to_csv,
    run_mise_experiment,
    sample_synthetic,
    truncation_bound,
)
from linkedkde.bandwidth import DEFAULT_LSCV_GRID, _choose
from linkedkde.series_solver import transforms_from_functions


def grid_errors(values, truth, x):
    """The grid L2 (trapezoid) and sup-norm errors of one estimate, as Python floats."""
    diff = values - truth
    return float(np.sqrt(np.trapezoid(diff * diff, x))), float(np.abs(diff).max())


def test_series_fast_path_matches_kernel_sum():
    samples = sample_synthetic(parabolic(), 60, seed=0)
    grid = EvaluationGrid.uniform(201)
    fast = estimate_density(samples, 2.0, 0.01, grid)
    columns = eval_linked_kernel(2.0, grid.points[None, :], samples.values[:, None], 0.01)
    assert np.abs(fast.values - columns.mean(axis=0)).max() <= 1e-9


def test_linked_rows_match_estimate_density():
    # the sweep reads the linked series from the even modes of X / 2; its
    # rows equal those of estimate_density on the same samples to round-off
    target = cosine_bump(0.5)
    ns, reps, seed, t = [50, 400], 2, 0, 0.01
    grid = EvaluationGrid.uniform(1001)
    truth = target.pdf(grid.points)
    rows = run_mise_experiment(target, "linked", ns, reps, bandwidth_rule="fixed", fixed_t=t, seed=seed)
    for row, n in zip(rows, ns):
        reports = [
            grid_errors(estimate_density(sample_synthetic(target, max(ns), seed + j).values[:n], 1.0, t, grid).values,
                        truth, grid.points)
            for j in range(reps)
        ]
        want = [np.mean([l2**2 for l2, _ in reports]), np.mean([l2 for l2, _ in reports])]
        want.append(np.mean([linf for _, linf in reports]))
        assert [row.mean_ise, row.mean_l2, row.mean_linf] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_lscv_linked_rows_make_one_transform_call_per_sample(monkeypatch):
    sizes = []

    def spy(samples, N):
        sizes.append(SampleSet.coerce(samples).n)
        return empirical_transforms(samples, N)

    monkeypatch.setattr(series_solver, "empirical_transforms", spy)
    run_mise_experiment(parabolic(), ("linked",), [100, 1000], reps=2, bandwidth_rule="lscv", seed=1)
    # the estimate is read from the LSCV fit: one call per (replicate, n)
    assert sizes == [100, 1000] * 2


@pytest.fixture
def transform_calls(monkeypatch):
    """Sample sizes of every empirical_transforms call, from any module."""
    sizes = []

    def spy(samples, N):
        sizes.append(SampleSet.coerce(samples).n)
        return empirical_transforms(samples, N)

    for module in (experiments, baselines, series_solver):
        monkeypatch.setattr(module, "empirical_transforms", spy)
    return sizes


# Up to this time the periodic Gaussian has period 2; above it, 4 or more.
PERIOD_TWO_T = 1.0 / (2.0 * math.log(1e16))


def test_default_sweep_makes_one_transform_call_per_sample(transform_calls):
    # a Gaussian of any period reads the sweep's one call, of X / P
    target, ns = parabolic(), [100, 316, 1000, 3162, 10_000]
    run_mise_experiment(target, ("linked", "cosine", "gaussian"), ns, reps=2, seed=0)
    above = [oracle_amise_bandwidth(n, target.info).t > PERIOD_TWO_T for n in ns]
    assert True in above and False in above
    assert transform_calls == [n for _ in range(2) for n in ns]


# t = 1e-9 needs 41,695 modes, past the old 10^4 cap where the linked
# estimate summed kernels, and is below the Gaussian's resolved-grid limit
# (its Taylor cells); 0.01 gives P = 2, 0.02 and 0.5 give P = 4 and 8.
@pytest.mark.parametrize("t", [1e-9, 0.01, 0.02, 0.5])
def test_sweep_rows_match_the_public_estimators(t):
    target, ns, reps, seed = cosine_bump(0.5), [40, 200], 2, 2
    grid = EvaluationGrid.uniform(1001)
    truth = target.pdf(grid.points)
    methods = ("linked", "cosine", "gaussian")
    public = (
        lambda x: estimate_density(x, 1.0, t, grid),
        lambda x: cosine_kde(x, t, grid),
        lambda x: gaussian_kde_baseline(x, t, grid),
    )
    rows = run_mise_experiment(target, methods, ns, reps, bandwidth_rule="fixed", fixed_t=t, seed=seed)
    draws = [sample_synthetic(target, max(ns), seed + j).values for j in range(reps)]
    for row, (estimate, n) in zip(rows, [(e, n) for e in public for n in ns]):
        reports = [grid_errors(estimate(x[:n]).values, truth, grid.points) for x in draws]
        want = [np.mean([l2**2 for l2, _ in reports]), np.mean([l2 for l2, _ in reports])]
        want.append(np.mean([linf for _, linf in reports]))
        assert [row.mean_ise, row.mean_l2, row.mean_linf] == pytest.approx(want, rel=1e-13, abs=0.0), row.method


@pytest.mark.parametrize("t", [1e12, 1e300])
def test_huge_time_sweep_keeps_its_transform_calls_small(monkeypatch, t):
    # P grows like sqrt(t) (2^24 at 1e12, about 2^504 at 1e300); the call of X / P
    # would take at least P modes, so past P = 16 the sweep calls X / 2 and the
    # Gaussian makes its own call at its own K
    modes = []

    def spy(samples, N):
        modes.append(N)
        return empirical_transforms(samples, N)

    for module in (experiments, baselines):
        monkeypatch.setattr(module, "empirical_transforms", spy)
    methods = ("linked", "cosine", "gaussian")
    rows = run_mise_experiment(parabolic(), methods, [50], 1, bandwidth_rule="fixed", fixed_t=t, seed=0)
    assert [row.method for row in rows] == list(methods)
    assert all(math.isfinite(v) for row in rows for v in (row.mean_ise, row.mean_l2, row.mean_linf))
    assert len(modes) == 2 and max(modes) <= 64


@pytest.mark.parametrize("methods", ["linked", "cosine", ("linked", "gaussian")])
def test_sweep_raises_below_the_gaussian_cap_whatever_its_methods(methods):
    # the shared call is sized for all three methods: at t = 1.05e-10 the linked
    # series and the cosine are within their caps, the Gaussian is not
    assert truncation_bound(1.05e-10) <= series_solver.MAX_MODES
    with pytest.raises(TruncationError, match="past the cap of 262144"):
        run_mise_experiment(parabolic(), methods, [10], 1, bandwidth_rule="fixed", fixed_t=1.05e-10)


@pytest.mark.parametrize("target", [parabolic(), beta_mixture(1.5), cosine_bump(0.5)], ids=lambda t: t.name)
def test_lscv_linked_rows_match_the_estimate_density_route(target):
    ns, reps, seed = [100, 1000], 2, 3
    r = target.info.r_true
    grid = EvaluationGrid.uniform(1001)
    truth = target.pdf(grid.points)
    rows = run_mise_experiment(target, "linked", ns, reps, bandwidth_rule="lscv", seed=seed)
    for i, n in enumerate(ns):
        reports = []
        for j in range(reps):
            samples = SampleSet(sample_synthetic(target, max(ns), seed + j).values[:n])
            t = lscv_bandwidth(samples, r, DEFAULT_LSCV_GRID).t
            reports.append(grid_errors(estimate_density(samples, r, t, grid).values, truth, grid.points))
        want = [np.mean([l2**2 for l2, _ in reports]), np.mean([l2 for l2, _ in reports])]
        want.append(np.mean([linf for _, linf in reports]))
        got = [rows[i].mean_ise, rows[i].mean_l2, rows[i].mean_linf]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def rows_from_one_report_per_estimate(target, methods, ns, reps, rule, seed):
    """The sweep's rows with the errors of each estimate from its own grid_errors call."""
    grid = EvaluationGrid.uniform(1001)
    truth = target.pdf(grid.points)
    r = target.info.r_true
    ise, l2, linf = (np.empty((len(methods), len(ns), reps)) for _ in range(3))
    periods = set()
    for j in range(reps):
        drawn = sample_synthetic(target, max(ns), seed + j).values
        for i, n in enumerate(ns):
            samples = SampleSet(drawn[:n])
            selection = _choose(samples, r, rule, None, target.info)
            t = selection.t
            periods.add(baselines._periodic_plan(t)[0])
            for m, values in enumerate(experiments._estimates(methods, samples, r, t, grid, selection.fit)):
                error_l2, error_linf = grid_errors(values, truth, grid.points)
                ise[m, i, j] = error_l2**2
                l2[m, i, j] = error_l2
                linf[m, i, j] = error_linf
    rows = [
        (name, n, reps, float(ise[m, i].mean()), float(l2[m, i].mean()), float(linf[m, i].mean()))
        for m, name in enumerate(methods)
        for i, n in enumerate(ns)
    ]
    return rows, periods


# At these seeds one l2 of each rule squares to a different double by C pow,
# as a Python float's ** 2 does, and by l2 * l2, as numpy's ** 2 does.
@pytest.mark.parametrize("rule, seed", [("oracle", 7), ("lscv", 116)])
def test_batched_error_pass_equals_one_report_per_estimate(rule, seed):
    # n = 100 and 316 take a Gaussian of period 4 under the oracle
    target, methods, ns, reps = parabolic(), ("linked", "cosine", "gaussian"), [100, 316, 3000], 2
    want, periods = rows_from_one_report_per_estimate(target, methods, ns, reps, rule, seed)
    if rule == "oracle":
        assert periods == {2, 4}
    rows = run_mise_experiment(target, methods, ns, reps, bandwidth_rule=rule, seed=seed)
    got = [(row.method, row.n, row.reps, row.mean_ise, row.mean_l2, row.mean_linf) for row in rows]
    assert got == want


def test_experiment_rows_are_reproducible():
    target = cosine_bump(0.5)
    a = run_mise_experiment(target, "linked", [100, 200], reps=3, seed=11)
    b = run_mise_experiment(target, "linked", [100, 200], reps=3, seed=11)
    assert rows_to_csv(a) == rows_to_csv(b)
    c = run_mise_experiment(target, "linked", [100, 200], reps=3, seed=12)
    assert rows_to_csv(a) != rows_to_csv(c)


def test_csv_shape_and_header():
    target = cosine_bump(0.5)
    rows = run_mise_experiment(target, "gaussian", [50], reps=1, bandwidth_rule="fixed", fixed_t=0.01, seed=0)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "method,n,reps,mean_ise,mean_l2,mean_linf"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "gaussian"
    # with a single replicate the ISE is exactly the squared L2 error
    assert float(fields[3]) == pytest.approx(float(fields[4]) ** 2, rel=1e-10)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        run_mise_experiment(cosine_bump(0.5), "nope", [50], reps=1)


# Rows of parabolic(), ns (100, 1000), reps 2, seed 5, oracle bandwidth, as
# computed by the per-method dense baseline sums: (method, n, ise, l2, linf).
# The linked rows are those of the FFT synthesis on the uniform grid, from
# the sweep's one transform call of X / P (P = 4 at n = 100, 2 at n = 1000).
DENSE_SUM_ROWS = [
    ("linked", 100, 0.005308306945172946, 0.07217413181023108, 0.21020490283080195),
    ("linked", 1000, 0.001664767334934498, 0.037747079175922404, 0.12508030363439326),
    ("cosine", 100, 0.017565893251616956, 0.13024992631241547, 0.3679708802866714),
    ("cosine", 1000, 0.0019396895631076437, 0.04325519093341532, 0.13460870998494728),
    ("gaussian", 100, 0.045843938404522194, 0.21394930859169492, 0.5717865878341586),
    ("gaussian", 1000, 0.018649915531278004, 0.1364556689899295, 0.5189486727212241),
]


def test_multi_method_call_returns_the_per_method_rows():
    target = parabolic()
    methods = ("linked", "cosine", "gaussian")
    rows = run_mise_experiment(target, methods, [100, 1000], reps=2, seed=5)
    single = [row for m in methods for row in run_mise_experiment(target, m, [100, 1000], reps=2, seed=5)]
    assert rows == single
    for row, (method, n, ise, l2, linf) in zip(rows, DENSE_SUM_ROWS):
        assert (row.method, row.n, row.reps) == (method, n, 2)
        got = (row.mean_ise, row.mean_l2, row.mean_linf)
        if method == "linked":
            assert got == (ise, l2, linf)
        else:
            assert got == pytest.approx((ise, l2, linf), rel=1e-13, abs=0.0)


def test_each_replicate_is_drawn_once_for_all_methods(monkeypatch):
    draws = []

    def spy(target, n, seed):
        draws.append((n, seed))
        return sample_synthetic(target, n, seed)

    monkeypatch.setattr(experiments, "sample_synthetic", spy)
    rows = run_mise_experiment(cosine_bump(0.5), ["gaussian", "linked"], [40, 80], reps=2, seed=3)
    # one draw at the largest n per replicate; every n scores a prefix of it
    assert draws == [(80, 3), (80, 4)]
    assert [(row.method, row.n) for row in rows] == [("gaussian", 40), ("gaussian", 80), ("linked", 40), ("linked", 80)]


@pytest.mark.parametrize("ns", [[40, 80], [80, 40], [40, 80, 40], [80, 80]])
def test_each_row_equals_the_row_of_a_one_size_sweep(ns):
    target = parabolic()
    methods = ("linked", "cosine", "gaussian")
    rows = run_mise_experiment(target, methods, ns, reps=2, seed=7)
    alone = {n: run_mise_experiment(target, methods, [n], reps=2, seed=7) for n in set(ns)}
    want = [alone[n][m] for m in range(len(methods)) for n in ns]
    assert rows == want


@pytest.mark.parametrize("ns", [[0], [50, 0], [50, -3, 100]])
def test_non_positive_sample_size_rejected_before_any_draw(monkeypatch, ns):
    monkeypatch.setattr(experiments, "sample_synthetic", None)
    with pytest.raises(ValueError, match="positive"):
        run_mise_experiment(cosine_bump(0.5), "linked", ns, reps=1)


def test_no_sample_sizes_give_no_rows(monkeypatch):
    monkeypatch.setattr(experiments, "sample_synthetic", None)
    assert run_mise_experiment(cosine_bump(0.5), "linked", [], reps=2) == []


def test_every_method_name_checked_before_sampling(monkeypatch):
    monkeypatch.setattr(experiments, "sample_synthetic", None)
    for methods in (["linked", "nope"], []):
        with pytest.raises(ValueError):
            run_mise_experiment(cosine_bump(0.5), methods, [50], reps=1)
    # and the bandwidth rule, with a fixed t given for the fixed rule only
    for rule, fixed_t, message in (
        ("horse", None, "unknown bandwidth rule 'horse'"),
        ("fixed", None, "needs a value for t"),
        ("fixed", -1.0, "diffusion time t must be positive and finite, got -1.0"),
        ("fixed", math.nan, "diffusion time t must be positive and finite, got nan"),
        ("oracle", 0.01, "not with 'oracle'"),
        ("silverman", 0.01, "not with 'silverman'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_mise_experiment(cosine_bump(0.5), "linked", [50], reps=1, bandwidth_rule=rule, fixed_t=fixed_t)


def test_data_driven_bandwidth_rules_wire_through():
    target = cosine_bump(0.5)
    for rule in ("silverman", "lscv"):
        rows = run_mise_experiment(target, "linked", [60], reps=1, bandwidth_rule=rule, seed=4)
        assert rows[0].mean_ise > 0.0
    with pytest.raises(ValueError):
        run_mise_experiment(target, "linked", [60], reps=1, bandwidth_rule="fixed")


def test_errors_shrink_with_sample_size():
    target = cosine_bump(0.5)
    rows = run_mise_experiment(target, "linked", [100, 1000, 10000], reps=5, seed=3)
    ises = [row.mean_ise for row in rows]
    assert ises[0] > ises[1] > ises[2]
    slope = rate_fit([100, 1000, 10000], ises)
    assert -1.0 <= slope <= -0.5


def test_cosine_method_degrades_on_nonreflecting_target():
    # the reflecting-end baseline keeps an O(sqrt(t)) boundary bias on a
    # target with nonzero endpoint slopes, so the linked method wins
    target = beta_mixture(2.0)
    ns = [1000, 10000]
    linked = run_mise_experiment(target, "linked", ns, reps=5, bandwidth_rule="fixed", fixed_t=2e-3, seed=1)
    cosine = run_mise_experiment(target, "cosine", ns, reps=5, bandwidth_rule="fixed", fixed_t=2e-3, seed=1)
    for lrow, crow in zip(linked, cosine):
        assert lrow.mean_ise < crow.mean_ise


class TestBiasOracles:
    def test_linked_bias_vanishes_with_time_for_compatible_target(self):
        target = parabolic()
        xs = np.linspace(0.0, 1.0, 401)
        truth = target.pdf(xs)
        sups = []
        for t in (4e-3, 1e-3, 2.5e-4):
            mean = expected_linked_density(target.pdf, 2.0, t, xs)
            sups.append(np.abs(mean - truth).max())
        assert sups[0] > sups[1] > sups[2]
        # C^1 target: sup bias decays like sqrt(t), so a 4x time cut halves it
        assert sups[0] / sups[1] >= 1.8
        assert sups[1] / sups[2] >= 1.8

    def test_stationary_target_has_zero_bias(self):
        target = beta_mixture(2.0)
        xs = np.linspace(0.0, 1.0, 101)
        mean = expected_linked_density(target.pdf, 0.5, 0.3, xs)
        assert np.abs(mean - target.pdf(xs)).max() <= 1e-10

    def test_linked_boundary_bias_beats_reflecting_baseline(self):
        target = beta_mixture(2.0)
        t = 1e-3
        truth0 = float(target.pdf(np.array(0.0)))
        linked = abs(expected_linked_density(target.pdf, 0.5, t, [0.0])[0] - truth0)
        cosine = abs(expected_cosine_density(target.pdf, t, [0.0])[0] - truth0)
        assert linked <= 0.2 * cosine

    def test_cosine_oracle_memory_bounded_at_tiny_time(self):
        # t = 1e-6 keeps 2366 modes; the unblocked quadrature table peaked at 227 MB
        target = parabolic()
        tracemalloc.start()
        try:
            mean = expected_cosine_density(target.pdf, 1e-6, [0.3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6
        assert mean[0] == pytest.approx(float(target.pdf(np.array(0.3))), rel=1e-4)


def parabolic_transforms(N):
    """Closed-form c0, s0, s1 of the parabolic target 6/11 (-2x^2 + x + 2)."""

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

    return transforms_from_functions(c0, s0, s1, N)


class TestEstimatorMeans:
    TIMES = (1e-2, 1e-3, 2.5e-4)

    @pytest.mark.parametrize("r", [0.0, 0.5, 2.0, 1e6])
    def test_linked_mean_is_the_series_of_the_closed_form_transforms(self, r):
        target = parabolic()
        xs = np.linspace(0.0, 1.0, 401)
        for t in self.TIMES + (1e-5,):
            mean = expected_linked_density(target.pdf, r, t, xs)
            want = eval_series_solution(parabolic_transforms(truncation_bound(t)), r, t, xs)
            assert np.abs(mean - want).max() <= 1e-13
            assert mean[0] == pytest.approx(r * mean[-1], rel=1e-13, abs=1e-300)

    def test_cosine_mean_matches_adaptive_cosine_coefficients(self):
        target = parabolic()
        xs = np.linspace(0.0, 1.0, 101)
        for t in self.TIMES:
            k = np.arange(1, experiments.cosine_mode_count(t) + 1)
            coef = np.array(
                [quad(target.pdf, 0.0, 1.0, weight="cos", wvar=math.pi * kk, epsabs=1e-15)[0] for kk in k]
            )
            decay = 2.0 * np.exp(-0.5 * (k * math.pi) ** 2 * t)
            want = quad(target.pdf, 0.0, 1.0)[0] + (decay * coef) @ np.cos(math.pi * np.outer(k, xs))
            assert np.abs(expected_cosine_density(target.pdf, t, xs) - want).max() <= 1e-11

    @pytest.mark.parametrize("name", ["parabolic", "trimodal", "beta_mixture:a=2", "beta_mixture:a=1.5"])
    def test_doubling_the_quadrature_nodes_moves_nothing(self, name, monkeypatch):
        # halving the phase a panel spans doubles the equal panels and their nodes;
        # a=1.5 has an x^(1/2) term at 0, which the graded end panels resolve
        pdf = parse_target(name).pdf
        xs = np.linspace(0.0, 1.0, 201)

        def means():
            out = [expected_cosine_density(pdf, t, xs) for t in (1e-2, 1e-4)]
            return out + [expected_linked_density(pdf, r, t, xs) for r in (0.5, 2.0) for t in (1e-2, 1e-4)]

        base = means()
        monkeypatch.setattr(series_solver, "_PANEL_PHASE", series_solver._PANEL_PHASE / 2.0)
        for a, b in zip(base, means()):
            assert np.abs(a - b).max() <= 1e-11

    def test_means_take_the_weighted_taylor_transforms(self, monkeypatch):
        calls = []

        def spy(vals, N, weights=None):
            calls.append((N, weights is not None))
            return taylor_transforms(vals, N, weights)

        taylor_transforms = series_solver._taylor_transforms
        monkeypatch.setattr(series_solver, "_taylor_transforms", spy)
        pdf = parabolic().pdf
        expected_linked_density(pdf, 2.0, 1e-3, [0.3])
        expected_cosine_density(pdf, 1e-3, [0.3])
        assert calls == [(truncation_bound(1e-3), True), (experiments.cosine_mode_count(1e-3), True)]

    def test_huge_time_gives_its_value_at_a_time_where_every_weight_is_zero(self):
        pdf = parabolic().pdf
        xs = [0.0, 0.3, 1.0]
        assert np.array_equal(expected_cosine_density(pdf, 1e308, xs), expected_cosine_density(pdf, 1e3, xs))

    def test_time_below_the_mode_cap_raises(self):
        # the cap is series_solver.MAX_MODES = 2^17 modes, reached at t = 1.0e-10
        with pytest.raises(TruncationError):
            expected_linked_density(parabolic().pdf, 2.0, 5e-11, [0.5])

    def test_means_sum_no_kernel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("kernel evaluated")

        for module in (linked_kernel, heat_kernels, experiments):
            for name in ("eval_linked_kernel", "eval_K1", "eval_K1_dx"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        pdf = parabolic().pdf
        assert np.all(np.isfinite(expected_linked_density(pdf, 2.0, 1e-3, [0.0, 0.5, 1.0])))
        assert np.all(np.isfinite(expected_cosine_density(pdf, 1e-3, [0.0, 0.5, 1.0])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -0.5])
    def test_points_must_be_finite_and_in_the_unit_interval(self, bad):
        pdf = parabolic().pdf
        with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
            expected_linked_density(pdf, 2.0, 0.01, [0.5, bad])
        with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
            expected_cosine_density(pdf, 0.01, [0.5, bad])
