"""Periodic heat kernel: dual summation forms, truncation, symmetries."""

import math

import numpy as np
import pytest

from linkedkde import TruncationError, eval_K1
from linkedkde.heat_kernels import T_SWITCH, _fourier_sum, _image_sum, eval_K1_dx
from linkedkde.types import TOL


def test_large_time_only_constant_mode_survives():
    # next Fourier term has magnitude 2 exp(-2 pi^2 * 10)
    assert eval_K1(0.25, 10.0) == pytest.approx(1.0, abs=1e-15)


def test_small_time_central_gaussian_image():
    expected = 1.0 / math.sqrt(2.0 * math.pi * 0.02)
    assert eval_K1(0.0, 0.02) == pytest.approx(expected, abs=1e-9)


def test_dual_forms_agree_at_crossover_point():
    f = _fourier_sum(0.3, 0.1, derivative=False)
    g = _image_sum(0.3, 0.1, derivative=False)
    assert f == pytest.approx(g, abs=1e-12)


@pytest.mark.parametrize("t", np.geomspace(1e-4, 10.0, 15))
def test_dual_form_agreement_sweep(t):
    # tolerances scale with the function's peak over the period: at small t
    # the kernel grows like t^{-1/2} (its slope like t^{-1}) and a float sum
    # cannot beat relative rounding at that scale
    xs = np.linspace(0.0, 1.0, 17)
    fo = _fourier_sum(xs, t, derivative=False)
    im = _image_sum(xs, t, derivative=False)
    peak = 1.0 / math.sqrt(2.0 * math.pi * t)
    assert np.abs(fo - im).max() <= 10.0 * TOL * max(1.0, peak)
    dfo = _fourier_sum(xs, t, derivative=True)
    dim = _image_sum(xs, t, derivative=True)
    slope_peak = math.exp(-0.5) * peak / math.sqrt(t)
    assert np.abs(dfo - dim).max() <= 100.0 * TOL * max(1.0, slope_peak)


def test_derivative_vanishes_at_origin():
    assert eval_K1_dx(0.0, 0.05) == 0.0


def test_derivative_vanishes_at_half_period():
    assert abs(eval_K1_dx(0.5, 0.05)) < 1e-13


def test_derivative_is_odd():
    assert eval_K1_dx(0.2, 0.05) == pytest.approx(-eval_K1_dx(-0.2, 0.05), abs=1e-15)


def test_derivative_matches_central_difference():
    h = 1e-6
    fd = (eval_K1(0.2 + h, 0.05) - eval_K1(0.2 - h, 0.05)) / (2.0 * h)
    assert eval_K1_dx(0.2, 0.05) == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("t", [1e-3, 0.02, 0.3, 2.0])
def test_periodicity(t):
    # the shifted argument x+1 rounds by an ulp, so the comparison picks up
    # |K1'| times that rounding on top of the truncation tolerance
    xs = np.linspace(-0.7, 0.7, 29)
    peak = eval_K1(0.0, t)
    diff = np.abs(eval_K1(xs, t) - eval_K1(xs + 1.0, t)).max()
    assert diff <= 2.0 * TOL * max(1.0, peak)


@pytest.mark.parametrize("t", [1e-3, 0.05, 1.0])
@pytest.mark.parametrize("x", [0.0, 0.31, 0.77])
def test_unit_mass_over_one_period(t, x):
    ys = np.linspace(0.0, 1.0, 4001)
    mass = np.trapezoid(eval_K1(x - ys, t), ys)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_positivity():
    xs = np.linspace(0.0, 1.0, 101)
    for t in (1e-3, 0.01, 0.5, 5.0):
        assert eval_K1(xs, t).min() > 0.0
    # far tails underflow to zero at very small t but never go negative
    assert eval_K1(xs, 1e-4).min() >= 0.0


def test_invalid_time_rejected():
    with pytest.raises(ValueError):
        eval_K1(0.3, 0.0)
    with pytest.raises(ValueError):
        eval_K1(0.3, -1.0)
    with pytest.raises(ValueError):
        eval_K1_dx(0.3, float("nan"))


def test_unreachable_tolerance_raises():
    # Each form needs about 4e4 (modes at t = 1e-9) or 7e4 (images per side at
    # t = 1e8) terms to reach 1e-14, past the cap of 10^4.
    with pytest.raises(TruncationError, match=r"^cosine series tail above tol=1e-14 after 10000 modes \(t=1e-09\)$"):
        _fourier_sum(0.3, 1e-9, derivative=False)
    with pytest.raises(TruncationError, match=r"^Gaussian-image tail above tol=1e-14 after 10000 images \(t=100000000.0\)$"):
        _image_sum(0.3, 1e8, derivative=False)


def test_switch_point_value():
    assert T_SWITCH == pytest.approx(1.0 / (2.0 * math.pi))


def test_vector_input_matches_scalar_loop():
    xs = np.array([0.05, 0.4, 0.93])
    vec = eval_K1(xs, 0.07)
    assert vec == pytest.approx([eval_K1(float(x), 0.07) for x in xs])
