"""Series solution: transforms, truncation rule, oracle agreement, PDE facts."""

import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from linkedkde import (
    TruncationError,
    empirical_transforms,
    eval_linked_kernel,
    eval_series_solution,
    truncation_bound,
)
from linkedkde import series_solver
from linkedkde.series_solver import (
    _ELEMENT_BUDGET,
    _TAYLOR_FFT_COST,
    _TAYLOR_ROW_COST,
    _TAYLOR_TAIL,
    _TRANSFORM_CHUNK,
    _block_size,
    _even_modes,
    _fast_len,
    _panel_rule,
    _synthesize,
    _taylor_order,
    _taylor_plan,
    _taylor_transforms,
    transforms_from_functions,
)
from linkedkde.series_solver import MAX_MODES
from linkedkde.types import TOL


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


def reduced_turns(modes, x):
    """m x minus its nearest integer, for each mode m and point x: phases reduced exactly to a turn.

    x is split as hi + lo with hi on a 2^-26 grid, so m hi is exact for
    m < 2^27 and its integer part drops out without rounding; only the
    small m lo is rounded, so the result is good to about one ulp of a turn.
    """
    hi = np.rint(x * 2.0**26) / 2.0**26
    turns = np.multiply.outer(modes, hi)
    turns -= np.rint(turns)
    turns += np.multiply.outer(modes, x - hi)
    return turns


def exact_phase_transforms(x, N, block=500):
    """Means of cos, sin, X sin and X cos of k_n X from ``reduced_turns``, in blocks of samples."""
    sums = np.zeros((4, N + 1))
    for start in range(0, x.size, block):
        part = x[start : start + block]
        turns = 2.0 * math.pi * reduced_turns(np.arange(N + 1.0), part)
        cos, sin = np.cos(turns), np.sin(turns)
        sums += [cos.sum(axis=1), sin.sum(axis=1), sin @ part, cos @ part]
    return sums / x.size


# Among them, both sides of the switches of the Taylor plan's least cell count,
# the power of two at or above 2 (N + 1), from N = 2^k - 1 to 2^k for k = 3..7 and 9.
@pytest.mark.parametrize(
    "N",
    [0, 1, 7, 8, 9, 11, 12, 15, 16, 17, 31, 32, 33, 55, 56, 63, 64, 65, 127, 128, 239, 240, 511, 512]
    + [991, 992, 1319],
)
def test_empirical_transforms_match_direct_formula(N):
    rng = np.random.default_rng(N)
    samples = np.concatenate([[0.0, 1.0, 0.5], rng.random(5)])
    cases = [(samples, empirical_transforms(samples, N))]
    cases += [([y], empirical_transforms([y], N)) for y in (0.0, 1.0, 0.3, float(rng.random()))]
    for x, tr in cases:
        for got, want in zip((tr.c0, tr.s0, tr.s1, tr.c1), direct_transforms(x, N)):
            assert np.abs(got - want).max() <= 1e-13
    # at X = 0 and X = 1 every phase is exactly zero
    for y in (0.0, 1.0):
        tr = empirical_transforms([y], N)
        assert np.array_equal(tr.c0, np.ones(N + 1)) and not np.any(tr.s0)


# N = 63 and 64 put the X / 2 transforms' 2N modes on both sides of a
# switch of the Taylor plan's least cell count. Over 200 draws the even
# modes of X / 2 equalled the transforms of X exactly at n = 1 and were
# within 5.6e-16 at n = 2; over thousands of samples, within 2.3e-16.
@pytest.mark.parametrize(
    "N, stride",
    [pytest.param(N, 2, id=str(N)) for N in (1, 21, 63, 64, 133)]
    + [pytest.param(N, stride, id=f"{N}-stride-{stride}") for stride in (4, 8) for N in (1, 21, 64)],
)
@pytest.mark.parametrize("n", [1, 2, 4097, 10_000])
def test_even_modes_of_half_sample_are_the_sample_transforms(n, N, stride):
    x = np.random.default_rng(n + N).random(n)
    x[0] = 1.0
    got = _even_modes(empirical_transforms(x / stride, stride * N), N, stride)
    want = empirical_transforms(x, N)
    assert got.n_modes == N and got.n_samples == n
    bound = 1e-14 if n > 2 else 5e-14
    for a, b in ((got.c0, want.c0), (got.s0, want.s0), (got.s1, want.s1), (got.c1, want.c1)):
        assert np.abs(a - b).max() <= bound


def plan_cells(N):
    # every cell count the Taylor plan can take: the powers of two from the
    # least at or above 2 (N + 1) (P largest) to the least at or above 64 (N + 1)
    least = 1 << math.ceil(math.log2(2 * (N + 1)))
    return [least << j for j in range(6)]


@pytest.mark.parametrize(
    "N",
    [0, 1, 7, 8, 9, 11, 12, 15, 16, 17, 31, 32, 33, 55, 56, 63, 64, 65, 127, 128, 239, 240, 511, 512]
    + [991, 992, 1319],
)
def test_taylor_transforms_match_direct_formula(monkeypatch, N):
    rng = np.random.default_rng(N)
    for cells in plan_cells(N):
        monkeypatch.setattr(series_solver, "_taylor_plan", lambda n, N, cells=cells: (cells, _taylor_order(N, cells)))
        g = rng.integers(0, cells, 3)
        # cell centres g / G have no offset; the edges (g + 1/2) / G are where rint ties
        special = np.concatenate([[0.0, 1.0, 0.5], g / cells, (g + 0.5) / cells, [0.5 / cells, 1.0 - 0.5 / cells]])
        samples = np.concatenate([special, rng.random(5)])
        cases = [samples, special] + [[y] for y in (0.0, 1.0, 0.3, 0.5 / cells, float(rng.random()))]
        for x in cases:
            tr = _taylor_transforms(np.asarray(x, dtype=float), N)
            assert tr.n_modes == N and tr.n_samples == len(x)
            for got, want in zip((tr.c0, tr.s0, tr.s1, tr.c1), direct_transforms(x, N)):
                assert np.abs(got - want).max() <= 1e-14, cells
        # a sample at a cell edge has |u| = 1/2, where the dropped Taylor terms are
        # largest; the tail rule keeps them near 1e-17, far below this bound
        edge = [0.5 / cells]
        tr = _taylor_transforms(np.array(edge), N)
        for got, want in zip((tr.c0, tr.s0, tr.s1, tr.c1), direct_transforms(edge, N)):
            assert np.abs(got - want).max() <= 1e-15, cells


@pytest.mark.parametrize("N", [0, 1, 42, 1319])
def test_weighted_taylor_transforms_are_weighted_sums(N):
    rng = np.random.default_rng(N)
    x = np.concatenate([[0.0, 1.0, 0.5], rng.random(300)])
    w = rng.random(x.size)
    tr = _taylor_transforms(x, N, w)
    assert tr.n_samples == 0
    turns = 2.0 * math.pi * reduced_turns(np.arange(N + 1.0), x)
    cos, sin = np.cos(turns), np.sin(turns)
    for got, want in zip((tr.c0, tr.s0, tr.s1, tr.c1), (cos @ w, sin @ w, sin @ (x * w), cos @ (x * w))):
        assert np.abs(got - want).max() <= 1e-14 * w.sum()
    # unit weights take the sample path's sums, undivided
    plain, unit = _taylor_transforms(x, N), _taylor_transforms(x, N, np.ones(x.size))
    for a, b in ((plain.c0, unit.c0), (plain.s0, unit.s0), (plain.s1, unit.s1), (plain.c1, unit.c1)):
        assert np.array_equal(a, b / x.size)


@pytest.mark.parametrize("turns", [0.5, 2.5, 42.0, 1319.0, 9324.0])
def test_panel_rule_integrates_end_terms_and_the_top_mode(turns):
    x, w = _panel_rule(turns)
    assert x.min() > 0.0 and x.max() < 1.0 and w.min() > 0.0
    # algebraic terms at either end, down to x^0.1, resolved by the halved end panels
    for beta in (0.0, 0.1, 0.5, 2.0):
        assert abs(math.fsum(w * x**beta) - 1.0 / (beta + 1.0)) <= 1e-15
        assert abs(math.fsum(w * (1.0 - x) ** beta) - 1.0 / (beta + 1.0)) <= 1e-15
    # the top mode, with phases and their closed forms reduced exactly to a turn
    k, end = 2.0 * math.pi * turns, 2.0 * math.pi * (turns % 1.0)
    phase = 2.0 * math.pi * reduced_turns(np.array([turns]), x)[0]
    assert abs(math.fsum(w * np.cos(phase)) - math.sin(end) / k) <= 1e-15
    assert abs(math.fsum(w * x * np.sin(phase)) - (math.sin(end) / k - math.cos(end)) / k) <= 1e-15


@pytest.mark.parametrize("N", [1, 7, 42, 133, 1319, 9324])
def test_cell_synthesis_matches_direct_formula(monkeypatch, N):
    # unit coefficients at every mode, where the dropped Taylor terms are
    # largest; points on both sides of 0, at cell centres and at the edges
    # where rint ties. The direct sum takes exactly reduced phases.
    rng = np.random.default_rng(N)
    for cells in plan_cells(N):
        monkeypatch.setattr(series_solver, "_taylor_plan", lambda n, N, cells=cells: (cells, _taylor_order(N, cells)))
        coef = np.exp(2j * math.pi * rng.random(N + 1))
        g = rng.integers(0, cells, 3)
        special = np.concatenate([[0.0, 1.0, 0.5], g / cells, (g + 0.5) / cells, [0.5 / cells, 1.0 - 0.5 / cells]])
        x = np.concatenate([special, -special, 2.0 * rng.random(20) - 1.0])
        turns = 2.0 * math.pi * np.sign(x) * reduced_turns(np.arange(N + 1.0), np.abs(x))
        want = coef.real @ np.cos(turns) - coef.imag @ np.sin(turns)
        assert np.abs(series_solver._cell_synthesis(coef, x) - want).max() <= 1e-15 * (N + 1), cells


def test_taylor_order_is_the_least_below_the_tail():
    def term(N, cells, order):
        return 4.0 * (math.pi * N / cells) ** order / math.factorial(order)

    orders = set()
    for N in range(1, 3000, 7):
        for cells in plan_cells(N):
            order = _taylor_order(N, cells)
            assert term(N, cells, order) < _TAYLOR_TAIL <= term(N, cells, order - 1)
            orders.add(order)
    assert min(orders) == 9 and max(orders) == 23


def test_taylor_plan_minimises_its_cost():
    # P + 2 passes over n samples, P + 1 FFTs of length G, a fixed cost per moment row
    def cost(n, N, cells):
        order = _taylor_order(N, cells)
        fft = _TAYLOR_FFT_COST * (order + 1) * cells * math.log2(cells)
        return n * (order + 2) + fft + _TAYLOR_ROW_COST * (order + 2)

    for n in (1, 100, 2048, 3000, 10**4, 10**5, 10**6, 10**7):
        for N in list(range(0, 3000, 7)) + [9324]:
            cells, order = _taylor_plan(n, N)
            options = plan_cells(N)
            assert cells in options and order == _taylor_order(N, cells)
            best = min(cost(n, N, c) for c in options)
            assert cost(n, N, cells) == best
            assert all(cost(n, N, c) > best for c in options if c < cells)
    # LSCV's 2N modes at n = 1e4, the large-N case, library_kernel's and bench_sweep's calls
    plans = [_taylor_plan(n, N)[0] for n, N in ((10**4, 266), (10**5, 9324), (4000, 27), (10**4, 44))]
    assert plans == [1024, 32768, 256, 512]


def test_taylor_memory_does_not_grow_with_the_sample():
    peaks = []
    for n in (2**17, 2**20):
        samples = np.random.default_rng(n).random(n)
        tracemalloc.start()
        try:
            _taylor_transforms(samples, 73)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


@pytest.mark.parametrize("N", [0, 1, 33, 63, 64, 65, 266, 512, 1319])
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
def test_taylor_row_groups_and_sample_blocks_keep_the_transforms(monkeypatch, n, N):
    # Budgets of 1, 2 and 9 moment rows per group: the groups after the first
    # start their term table at turn^first / first!, and 9 rows take FFT steps
    # of 2 or more, the last one short. From N = 1 the plan has 10 or more rows
    # (P >= 9), so every budget splits them. Blocks of 4096 samples end on a
    # one-sample block at 4097 and 8193. Measured at most 2.8e-17 from one
    # group and one block.
    x = np.random.default_rng(n + N).random(n)
    x[: min(n, 3)] = [0.0, 1.0, 0.5][: min(n, 3)]
    want = _taylor_transforms(x, N)
    cells = _taylor_plan(n, N)[0]
    monkeypatch.setattr(series_solver, "_TAYLOR_BLOCK", 4096)
    for group in (1, 2, 9):
        monkeypatch.setattr(series_solver, "_ELEMENT_BUDGET", (group + 1) * (2 * cells + 2))
        assert (_block_size(10 * cells - 1) > 1) == (group == 9)
        got = _taylor_transforms(x, N)
        for a, b in ((got.c0, want.c0), (got.s0, want.s0), (got.s1, want.s1), (got.c1, want.c1)):
            assert np.abs(a - b).max() <= 1e-16


@pytest.mark.parametrize("N", [0, 1, 29, 133, 266, 1319])
@pytest.mark.parametrize("n", [1, 1000, 2047, 2048, 4095, 4096, 20_000])
def test_taylor_transforms_match_the_exact_phases(n, N):
    x = np.random.default_rng(n + N).random(n)
    x[: min(n, 2)] = [0.0, 1.0][: min(n, 2)]
    tr = empirical_transforms(x, N)
    for got, want in zip((tr.c0, tr.s0, tr.s1, tr.c1), exact_phase_transforms(x, N)):
        assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("N", [0, 20, 266, 1319])
@pytest.mark.parametrize("n", [1, 2, 100, 2047, 2048, 4097])
def test_empirical_transforms_are_the_taylor_transforms(n, N):
    x = np.random.default_rng(n + N).random(n)
    got, want = empirical_transforms(x, N), _taylor_transforms(x, N)
    assert got.n_samples == want.n_samples == n
    for a, b in ((got.c0, want.c0), (got.s0, want.s0), (got.s1, want.s1), (got.c1, want.c1)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("N", [0, 1, 63, 266, 1319])
@pytest.mark.parametrize("ends", [(0.0,), (1.0,), (0.0, 1.0)])
def test_taylor_endpoint_samples_give_exact_transforms(ends, N):
    x = np.resize(np.array(ends), 5000)
    for tr in (_taylor_transforms(x, N), empirical_transforms(x, N)):
        assert np.array_equal(tr.c0, np.ones(N + 1)) and not np.any(tr.s0)


def test_fast_len_is_scipys_real_fft_length():
    # pins the LSCV FFT length 4N + 1 -> L, and with it the scores, to scipy's choice
    from scipy.fft import next_fast_len

    n = range(1, 20001)
    assert [_fast_len(v) for v in n] == [next_fast_len(v, real=True) for v in n]


@pytest.mark.parametrize("n_coef, length", [(1, 1), (5, 8), (8, 8)])
def test_synthesis_folds_modes_exactly(n_coef, length):
    rng = np.random.default_rng(n_coef + length)
    coef = rng.standard_normal(n_coef) + 1j * rng.standard_normal(n_coef)
    j = np.arange(length)
    want = (coef[:, None] * np.exp(2j * np.pi * np.outer(np.arange(n_coef), j) / length)).sum(axis=0).real
    got = _synthesize(coef, length)
    assert got.shape == (length,)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(coef).sum()


def test_transform_magnitudes_bounded_for_probability_data():
    rng = np.random.default_rng(2)
    tr = empirical_transforms(rng.random(257), 40)
    assert tr.c0[0] == 1.0
    for arr in (tr.c0, tr.s0, tr.s1):
        assert np.abs(arr).max() <= 1.0 + 1e-15


def test_uniform_density_is_stationary_in_periodic_case():
    tr = uniform_transforms(truncation_bound(0.01))
    xs = np.linspace(0.0, 1.0, 21)
    for t in (0.01, 0.1, 1.0):
        assert eval_series_solution(tr, 1.0, t, xs) == pytest.approx(np.ones(21), abs=1e-12)


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

    xs = np.linspace(0.0, 1.0, 41)
    for t in (0.01, 0.05, 0.4):
        tr = transforms_from_functions(c0, s0, s1, truncation_bound(t))
        vals = eval_series_solution(tr, 2.0, t, xs)
        assert vals == pytest.approx((4.0 - 2.0 * xs) / 3.0, abs=1e-11)


def test_point_mass_series_matches_kernel_evaluation():
    tr = empirical_transforms([0.5], truncation_bound(0.02))
    got = eval_series_solution(tr, 2.0, 0.02, 0.3)
    assert got == pytest.approx(eval_linked_kernel(2.0, 0.3, 0.5, 0.02), abs=1e-9)


@pytest.mark.parametrize("t", [1e-4, 0.05])
def test_blocked_evaluation_equals_per_block_calls(t):
    tr = empirical_transforms(np.random.default_rng(8).random(300), truncation_bound(t))
    xs = np.linspace(0.0, 1.0, 2 * _TRANSFORM_CHUNK + 17)
    blocks = [
        eval_series_solution(tr, 2.0, t, xs[start : start + _TRANSFORM_CHUNK])
        for start in range(0, xs.size, _TRANSFORM_CHUNK)
    ]
    assert np.array_equal(eval_series_solution(tr, 2.0, t, xs), np.concatenate(blocks))


def test_block_size_keeps_temporaries_in_budget():
    # up to N = 255 the blocks stay at the fixed chunk; beyond, they shrink
    assert _block_size(0) == _block_size(255) == _TRANSFORM_CHUNK
    for N in (256, 1319, 9324):
        step = _block_size(N)
        assert step < _TRANSFORM_CHUNK
        assert (N + 1) * step <= _ELEMENT_BUDGET < (N + 1) * (step + 1)
    assert _block_size(10 * _ELEMENT_BUDGET) == 1


def test_many_modes_stay_within_memory_budget():
    # At N = 3000 one unblocked mode-by-4096 array would take 98 MB; at
    # n = 1e6 Taylor moment passes over the whole sample at once would take
    # about 40 MB; N = 9324 is the mode count at t = 2e-8, near the cap.
    # The series is read at 5000 samples.
    budget_mb = _ELEMENT_BUDGET * 8 / 2**20
    for n, N, t in [(5000, 3000, 1e-6), (10**6, 73, 1e-3), (10**5, 9324, 2e-8)]:
        samples = np.random.default_rng(2).random(n)
        tracemalloc.start()
        try:
            tr = empirical_transforms(samples, N)
            _, transform_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            vals = eval_series_solution(tr, 2.0, t, samples[:5000])
            _, eval_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert transform_peak / 2**20 <= 5 * budget_mb
        assert eval_peak / 2**20 <= 5 * budget_mb
        assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 10.0])
def test_oracle_triangle_over_grid(r):
    xs = np.linspace(0.0, 1.0, 101)
    for t in (1e-3, 1e-2, 0.1, 1.0):
        tr = empirical_transforms([0.37], truncation_bound(t))
        series = eval_series_solution(tr, r, t, xs)
        kernel = eval_linked_kernel(r, xs, 0.37, t)
        assert np.abs(series - kernel).max() <= 1e-9


def test_truncation_bound_examples():
    assert truncation_bound(10.0) <= 2
    assert truncation_bound(0.01) == 14
    # derived by solving (1 + k t) exp(-k^2 t/2) * 8 < 1e-14 for k = 2 pi N
    assert truncation_bound(0.001) == 42


def test_truncation_bound_is_the_least_mode_count_below_tol():
    # the search it replaced, the reference: every N from 1 up to the cap
    def least(t):
        for n in range(1, MAX_MODES + 1):
            if series_solver._tail_envelope(n, t) < TOL:
                return n
        return None

    # the cap falls at about t = 1.0e-10; bisect for the times either side of it
    below, above = 0.9e-10, 1.1e-10
    for _ in range(50):
        mid = 0.5 * (below + above)
        below, above = (mid, above) if least(mid) is None else (below, mid)
    assert least(below) is None and least(above) == MAX_MODES
    huge = [1e300, 3e307, 1e308, sys.float_info.max]
    ts = np.concatenate([np.geomspace(2e-11, 100.0, 600), np.geomspace(0.9e-10, 1.1e-10, 30), [below, above], huge])
    for t in ts.tolist():
        want = least(t)
        if want is None:
            with pytest.raises(TruncationError):
                truncation_bound(t)
        else:
            assert truncation_bound(t) == want, t


def test_truncation_bound_monotone_in_time():
    ts = np.geomspace(1e-4, 10.0, 30)
    bounds = [truncation_bound(t) for t in ts]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_truncation_bound_scales_like_inverse_sqrt_time():
    n_small = truncation_bound(1e-3)
    n_large = truncation_bound(1e-1)
    assert n_small / n_large == pytest.approx(10.0, rel=0.35)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluation_points_must_be_finite(bad):
    tr = empirical_transforms([0.4], truncation_bound(0.01))
    with pytest.raises(ValueError, match="finite"):
        eval_series_solution(tr, 2.0, 0.01, [0.5, bad])
    with pytest.raises(ValueError, match="finite"):
        eval_series_solution(tr, 2.0, 0.01, bad)


def test_insufficient_modes_raise():
    tr = empirical_transforms([0.4], 3)
    with pytest.raises(TruncationError):
        eval_series_solution(tr, 1.0, 1e-3, 0.5)


@pytest.mark.parametrize("t", [1e-3, 1e-11])
def test_too_few_modes_name_the_cap_not_a_mode_count(t):
    # at t = 1e-11 no N up to the cap will do, so the message names no N
    tr = empirical_transforms([0.4], 3)
    message = (
        f"transforms carry N=3 modes; envelope at N is not below tol=1e-14 for t={t} "
        "(truncation_bound(t) gives the modes t needs, up to the cap of 131072)"
    )
    with pytest.raises(TruncationError, match=f"^{re.escape(message)}$"):
        eval_series_solution(tr, 1.0, t, 0.5)


def test_linked_boundary_condition_exact():
    tr = empirical_transforms([0.21, 0.68, 0.9], truncation_bound(0.02))
    for r in (0.0, 0.5, 2.0, 7.0):
        v0 = eval_series_solution(tr, r, 0.02, 0.0)
        v1 = eval_series_solution(tr, r, 0.02, 1.0)
        assert v0 == pytest.approx(r * v1, rel=1e-10, abs=1e-13)


def test_endpoint_slopes_agree():
    tr = empirical_transforms([0.21, 0.68, 0.9], truncation_bound(0.05))
    h = 1e-5
    f = lambda x: eval_series_solution(tr, 2.0, 0.05, np.asarray(x, dtype=float))
    slope0 = (f([h])[0] - f([0.0])[0]) / h
    slope1 = (f([1.0])[0] - f([1.0 - h])[0]) / h
    assert abs(slope0 - slope1) <= 50.0 * h + 1e-8


def test_pde_residual_second_order():
    tr = empirical_transforms([0.43], truncation_bound(0.04))
    t = 0.05
    residuals = []
    for h in (1e-2, 5e-3, 2.5e-3):
        xs = np.arange(h, 1.0 - h / 2.0, h)
        mid = eval_series_solution(tr, 2.0, t, xs)
        f_t = (
            eval_series_solution(tr, 2.0, t + h, xs)
            - eval_series_solution(tr, 2.0, t - h, xs)
        ) / (2.0 * h)
        f_xx = (
            eval_series_solution(tr, 2.0, t, xs + h)
            - 2.0 * mid
            + eval_series_solution(tr, 2.0, t, xs - h)
        ) / (h * h)
        residuals.append(np.abs(f_t - 0.5 * f_xx).max())
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.25)
    assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.25)


def test_series_mass_equals_zeroth_transform():
    tr = empirical_transforms([0.1, 0.5, 0.52, 0.97], truncation_bound(0.01))
    xs = np.linspace(0.0, 1.0, 2001)
    mass = np.trapezoid(eval_series_solution(tr, 3.0, 0.01, xs), xs)
    assert mass == pytest.approx(tr.c0[0], abs=1e-8)


def test_nonseparable_term_active_exactly_when_ratio_differs_from_one():
    # Rebuild the series by hand from the transforms, with and without the
    # time-linear generalized-eigenfunction term, and compare to the library.
    y, t, x = 0.37, 0.02, 0.61
    N = truncation_bound(t)
    tr = empirical_transforms([y], N)
    k = 2.0 * math.pi * np.arange(1, N + 1)
    decay = np.exp(-0.5 * k * k * t)

    def manual(r, with_linear_term):
        lin = r + (1.0 - r) * x
        sin_coef = tr.s0[1:] - (1.0 - r) * tr.s1[1:]
        if with_linear_term:
            sin_coef = sin_coef - k * t * (1.0 - r) * tr.c0[1:]
        series = tr.c0[1:] * lin * np.cos(k * x) + sin_coef * np.sin(k * x)
        return (2.0 / (1.0 + r)) * tr.c0[0] * lin + (4.0 / (1.0 + r)) * (decay * series).sum()

    for r in (0.5, 2.0):
        lib = eval_series_solution(tr, r, t, x)
        assert lib == pytest.approx(manual(r, True), abs=1e-13)
        assert abs(lib - manual(r, False)) > 1e-6
    lib = eval_series_solution(tr, 1.0, t, x)
    assert lib == pytest.approx(manual(1.0, False), abs=1e-13)
