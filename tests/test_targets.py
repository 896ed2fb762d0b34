"""Synthetic targets and inverse-CDF sampling."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_dist

from linkedkde import (
    SyntheticTarget,
    TargetDensityInfo,
    beta_mixture,
    cosine_bump,
    parabolic,
    parse_target,
    sample_synthetic,
    trimodal,
)
from linkedkde import targets as targets_module

ULP = 2.0**-52


@pytest.mark.parametrize(
    "target", [beta_mixture(2.0), beta_mixture(1.3), cosine_bump(0.5), parabolic(), trimodal()]
)
def test_density_normalized_and_cdf_consistent(target):
    # trapezoid mass tolerance allows for the unbounded slope of the
    # beta-mixture density at the left endpoint when 1 < a < 2
    xs = np.linspace(0.0, 1.0, 4001)
    pdf = target.pdf(xs)
    assert pdf.min() >= 0.0
    assert np.trapezoid(pdf, xs) == pytest.approx(1.0, abs=2e-5)
    cdf = target.cdf(xs)
    assert cdf[0] == pytest.approx(0.0, abs=1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    # CDF differentiates back to the density; the first cells are excluded
    # because the finite difference degrades where the slope is unbounded
    mid = 0.5 * (xs[1:] + xs[:-1])
    gap = np.abs(np.diff(cdf) / np.diff(xs) - target.pdf(mid))
    assert gap[mid > 0.01].max() < 1e-4
    assert gap.max() < 5e-3


def test_beta_mixture_a2_is_affine():
    target = beta_mixture(2.0)
    xs = np.linspace(0.0, 1.0, 9)
    assert target.pdf(xs) == pytest.approx((2.0 + 2.0 * xs) / 3.0, abs=1e-15)
    assert target.info.r_true == 0.5
    assert target.info.fprime_gap == 0.0
    assert target.info.f_second_norm_sq == 0.0


def test_cosine_bump_info():
    target = cosine_bump(0.5)
    assert target.info.f_second_norm_sq == pytest.approx(2.0 * math.pi**4, rel=1e-14)
    assert target.info.r_true == 1.0
    assert target.info.fprime_gap == 0.0


def test_parabolic_info_against_quadrature():
    target = parabolic()
    norm_sq = quad(lambda x: (24.0 / 11.0) ** 2, 0.0, 1.0)[0]
    assert target.info.f_second_norm_sq == pytest.approx(norm_sq, rel=1e-14)
    assert target.info.r_true == 2.0
    assert target.pdf(np.array(0.0)) == pytest.approx(2.0 * target.pdf(np.array(1.0)))
    h = 1e-7
    fd0 = (target.pdf(np.array(h)) - target.pdf(np.array(0.0))) / h
    fd1 = (target.pdf(np.array(1.0)) - target.pdf(np.array(1.0 - h))) / h
    assert fd0 == pytest.approx(target.info.fprime0, abs=1e-5)
    assert fd1 == pytest.approx(target.info.fprime1, abs=1e-5)


def test_trimodal_has_three_modes_and_unit_ratio():
    target = trimodal()
    xs = np.linspace(0.0, 1.0, 2001)
    pdf = target.pdf(xs)
    interior_peaks = [
        i
        for i in range(1, xs.size - 1)
        if pdf[i] > pdf[i - 1] and pdf[i] > pdf[i + 1] and pdf[i] > 0.5
    ]
    assert len(interior_peaks) == 3
    assert target.pdf(np.array(0.0)) == pytest.approx(target.pdf(np.array(1.0)), rel=1e-9)
    assert target.info.f_second_norm_sq > 0.0

    # ||f''||^2 by adaptive quadrature of scipy.stats' Beta densities
    def second_derivative(x):
        out = 0.0
        for a, b in ((20.0, 50.0), (45.0, 45.0), (50.0, 20.0)):
            slope = (a - 1.0) / x - (b - 1.0) / (1.0 - x)
            out += 0.3 * beta_dist.pdf(x, a, b) * (slope**2 - (a - 1.0) / x**2 - (b - 1.0) / (1.0 - x) ** 2)
        return out

    reference = quad(lambda x: second_derivative(x) ** 2, 0.0, 1.0, limit=200)[0]
    assert target.info.f_second_norm_sq == pytest.approx(reference, rel=1e-12)


def test_parse_target_round_trip():
    assert parse_target("beta_mixture:a=1.5").name == "beta_mixture:a=1.5"
    assert parse_target("cosine_bump:amp=0.25").name == "cosine_bump:amp=0.25"
    assert parse_target("parabolic").name == "parabolic"
    with pytest.raises(ValueError):
        parse_target("does_not_exist")
    with pytest.raises(ValueError):
        parse_target("beta_mixture:a")


@pytest.mark.parametrize(
    "spec, names",
    [
        ("beta_mixture:A=3", ["unknown parameter 'A'"]),
        ("parabolic:x=1", ["unknown parameter 'x'"]),
        ("cosine_bump:amp=0.3,typo=1", ["unknown parameter 'typo'"]),
        ("trimodal:amp=0.3", ["unknown parameter 'amp'"]),
        ("beta_mixture:a=2,a=3", ["repeated parameter 'a'"]),
        ("cosine_bump:amp=0.1,b=1,amp=0.2,c=2", ["unknown parameter 'b'", "unknown parameter 'c'", "repeated parameter 'amp'"]),
    ],
)
def test_parse_target_names_unknown_and_repeated_parameters(spec, names):
    with pytest.raises(ValueError) as info:
        parse_target(spec)
    for name in names:
        assert name in str(info.value)
    assert str(info.value).count("parameter '") == len(names)


def test_sampling_is_deterministic():
    target = beta_mixture(2.0)
    a = sample_synthetic(target, 100, seed=5)
    b = sample_synthetic(target, 100, seed=5)
    assert a.values == pytest.approx(b.values, abs=0.0)
    c = sample_synthetic(target, 100, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_inverse_cdf_accuracy():
    target = parabolic()
    samples = sample_synthetic(target, 1000, seed=2)
    u = np.random.default_rng(2).random(1000)
    assert np.abs(target.cdf(samples.values) - u).max() <= 4 * ULP


def test_empirical_cdf_within_dkw_band():
    target = beta_mixture(2.0)
    n = 10**5
    samples = sample_synthetic(target, n, seed=9)
    xs = np.linspace(0.0, 1.0, 201)
    ecdf = np.searchsorted(np.sort(samples.values), xs, side="right") / n
    assert np.abs(ecdf - target.cdf(xs)).max() <= 2.0 / math.sqrt(n)


def test_non_monotone_cdf_rejected():
    broken = SyntheticTarget(
        name="broken",
        pdf=lambda x: np.ones_like(x),
        cdf=lambda x: np.sin(3.0 * x),
        info=TargetDensityInfo(f_second_norm_sq=1.0, fprime0=0.0, fprime1=0.0, r_true=1.0),
    )
    with pytest.raises(ValueError):
        sample_synthetic(broken, 10, seed=0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        beta_mixture(0.5)
    # a non-finite shape is named as such, not as the ratio or roughness it would give
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError, match="shape parameter a must be finite"):
            beta_mixture(a)
    with pytest.raises(ValueError):
        cosine_bump(1.0)
    with pytest.raises(ValueError):
        sample_synthetic(parabolic(), 0, seed=0)


def two_ended_bisection(target, n, seed):
    # The textbook inverse-CDF bisection with both interval ends kept.
    u = np.random.default_rng(seed).random(n)
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        below = target.cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


SAMPLER_TARGETS = [
    parabolic(),
    beta_mixture(1.0),
    beta_mixture(1.5),
    beta_mixture(2.0),
    beta_mixture(3.0),
    cosine_bump(0.5),
    trimodal(),
]


def residual_bound(target):
    # |F(x) - u| at the round-off of the CDF evaluator: betainc's sums in
    # the trimodal CDF round more than the closed forms.
    return (8 if target.name == "trimodal" else 4) * ULP


def assert_inverts_the_cdf(target, n, seed):
    got = sample_synthetic(target, n, seed).values
    u = np.random.default_rng(seed).random(n)
    assert np.abs(target.cdf(got) - u).max() <= residual_bound(target)
    # The 48-step bisection ends 2^-49 from its root; both agree well inside 2^-46.
    assert np.abs(got - two_ended_bisection(target, n, seed)).max() <= 2.0**-46


# n = 10_000 is the largest size `linkedkde bench` draws by default; the
# closed-form CDFs are cheap enough to check it as well.
SAMPLER_CASES = [(target, n) for n in (1, 7, 1000) for target in SAMPLER_TARGETS]
SAMPLER_CASES += [(target, 10_000) for target in SAMPLER_TARGETS if target.name != "trimodal"]


@pytest.mark.parametrize("target, n", [pytest.param(t, n, id=f"{n}-{t.name}") for t, n in SAMPLER_CASES])
def test_sampler_inverts_the_cdf_to_round_off(target, n):
    for seed in (0, 3):
        assert_inverts_the_cdf(target, n, seed)


@settings(max_examples=30, deadline=None)
@given(
    target=st.sampled_from(SAMPLER_TARGETS),
    n=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sampler_inverts_the_cdf_to_round_off_at_any_size_and_seed(target, n, seed):
    assert_inverts_the_cdf(target, n, seed)


def test_parabolic_draw_takes_few_cdf_passes():
    target = parabolic()
    calls = []

    def cdf(x):
        calls.append(np.size(x))
        return target.cdf(x)

    sample_synthetic(dataclasses.replace(target, cdf=cdf), 10_000, seed=0)
    # the probe grid, then three or four Newton steps on the samples still stepping
    assert len(calls) <= 8


def flat_middle_target():
    # Density 1 on [0, 0.3995), 16 on [0.3995, 0.4), 0 on [0.4, 0.6] and
    # 0.5925 / 0.4 on (0.6, 1]. The CDF is flat on [0.4, 0.6], and the
    # probe cell [0.399, 0.4] holds a kink, so Newton steps from its chord
    # leave the cell and take its midpoint.
    right = 0.5925 / 0.4

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.select([x < 0.3995, x < 0.4, x <= 0.6], [1.0, 16.0, 0.0], right)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.select(
            [x < 0.3995, x < 0.4, x <= 0.6],
            [x, 0.3995 + 16.0 * (x - 0.3995), 0.4075],
            0.4075 + right * (x - 0.6),
        )

    info = TargetDensityInfo(f_second_norm_sq=1.0, fprime0=0.0, fprime1=0.0, r_true=1.0 / right)
    return SyntheticTarget(name="flat_middle", pdf=pdf, cdf=cdf, info=info)


def test_flat_cdf_target_is_inverted_within_the_bound():
    target = flat_middle_target()
    n = 20_000
    got = sample_synthetic(target, n, seed=1).values
    u = np.random.default_rng(1).random(n)
    assert got.min() >= 0.0 and got.max() <= 1.0
    assert np.abs(target.cdf(got) - u).max() <= 4 * ULP
    # the kinked cell is sampled, and nothing lands inside the flat part
    assert np.count_nonzero((got > 0.3995) & (got < 0.4)) > 50
    assert not np.any((got > 0.4) & (got < 0.6))
    assert np.array_equal(sample_synthetic(target, 100, seed=1).values, got[:100])


@pytest.mark.parametrize("target", SAMPLER_TARGETS, ids=lambda t: t.name)
def test_smaller_draw_is_a_prefix_of_a_larger_one(target):
    full = sample_synthetic(target, 1000, seed=4).values
    for n in (1, 7, 999):
        assert np.array_equal(sample_synthetic(target, n, seed=4).values, full[:n])


def searchsorted_cells(probe, u):
    """The bracket lookup the guide table replaced: one binary search per uniform."""
    return np.searchsorted(probe, u, side="right") - 1


@pytest.mark.parametrize("target", SAMPLER_TARGETS + [flat_middle_target()], ids=lambda t: t.name)
def test_guide_table_draws_equal_the_searchsorted_draws(target, monkeypatch):
    probe = target.cdf(np.linspace(0.0, 1.0, 1001))
    for seed in (0, 5):
        u = np.random.default_rng(seed).random(10_000)
        assert np.array_equal(targets_module._bracket_cells(probe, u), searchsorted_cells(probe, u))
    fast = sample_synthetic(target, 10_000, seed=2).values
    monkeypatch.setattr(targets_module, "_bracket_cells", searchsorted_cells)
    assert np.array_equal(fast, sample_synthetic(target, 10_000, seed=2).values)


def test_guide_table_cells_on_flat_runs():
    # 11 values repeated 91 times each: long walks, keys j / 4096 that fall
    # on repeated probe values, and uniforms equal to a probe value, which
    # belong to the last cell that starts at it
    probe = np.repeat(np.linspace(0.0, 1.0, 11), 91)
    u = np.concatenate([np.arange(4096) / 4096, probe[:-91], np.random.default_rng(1).random(1000)])
    assert np.array_equal(targets_module._bracket_cells(probe, u), searchsorted_cells(probe, u))


def compacting_newton(target, n, seed):
    """The sampler's Newton loop as it was, compacting the samples still stepping after every step."""
    grid = np.linspace(0.0, 1.0, 1001)
    probe = target.cdf(grid)
    u = np.random.default_rng(seed).random(n)
    cell = np.minimum(np.maximum(searchsorted_cells(probe, u), 0), probe.size - 2)
    lo, hi = grid[cell], grid[cell + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + (hi - lo) * ((u - probe[cell]) / (probe[cell + 1] - probe[cell]))
    x = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))

    out = np.empty(n)
    live = np.arange(n)
    for _ in range(24):
        residual = target.cdf(x) - u
        above = residual > 0.0
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = x - residual / target.pdf(x)
        step = np.where(((step > lo) & (step < hi)) | (step == x), step, 0.5 * (lo + hi))
        out[live] = x
        go = (np.abs(residual) > ULP) & (step != x)
        live, x, u, lo, hi = live[go], step[go], u[go], lo[go], hi[go]
        if not live.size:
            break
    else:
        out[live] = x
    return out


def doubled_pdf_target():
    # parabolic with its pdf doubled: every Newton step halves the error,
    # so samples exhaust the 24 steps instead of stopping on their own test
    target = parabolic()
    return dataclasses.replace(target, name="parabolic_doubled_pdf", pdf=lambda x: 2.0 * target.pdf(x))


@pytest.mark.parametrize(
    "target", SAMPLER_TARGETS + [flat_middle_target(), doubled_pdf_target()], ids=lambda t: t.name
)
@pytest.mark.parametrize("n", [1, 7, 1000, 10_000])
def test_draws_equal_the_compacting_loop_bit_for_bit(target, n):
    for seed in (0, 1, 6):
        assert np.array_equal(sample_synthetic(target, n, seed).values, compacting_newton(target, n, seed))


def test_doubled_pdf_takes_every_newton_step():
    target = doubled_pdf_target()
    calls = []

    def cdf(x):
        calls.append(np.size(x))
        return target.cdf(x)

    got = sample_synthetic(dataclasses.replace(target, cdf=cdf), 1000, seed=0).values
    # the probe grid, then all 24 steps, the last still with samples stepping
    assert len(calls) == 1 + 24 and calls[-1] > 0
    u = np.random.default_rng(0).random(1000)
    assert np.abs(target.cdf(got) - u).max() > ULP
