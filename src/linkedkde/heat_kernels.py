"""Periodic heat kernel on the unit circle and its spatial derivative.

The kernel has two classical summation forms related by Poisson summation:

* a Fourier cosine series ``1 + 2 sum_n exp(-k_n^2 t / 2) cos(k_n x)`` with
  ``k_n = 2 pi n``, which converges fast for large ``t``;
* a periodized Gaussian ``(2 pi t)^{-1/2} sum_n exp(-(x - n)^2 / (2 t))``,
  which converges fast for small ``t``.

``eval_K1`` and ``eval_K1_dx`` pick the cheaper form by t; each form is
summed by its own private function, and both truncate once the monotone
bound on the next term drops below ``types.TOL`` (1e-14).
"""

from __future__ import annotations

import math

import numpy as np

from .types import MAX_TERMS, TOL, TruncationError, validate_time

# Below this time the Gaussian-image sum needs <= 4 images per side at
# TOL = 1e-14, above it the cosine series needs only a handful of modes;
# the crossover equalizes the term counts of the two dual forms.
T_SWITCH = 1.0 / (2.0 * math.pi)


def _fourier_mode_count(t: float, derivative: bool) -> int:
    """Smallest mode index whose term bound falls below TOL (inclusive cap)."""
    for n in range(1, MAX_TERMS + 1):
        k = 2.0 * math.pi * n
        bound = 2.0 * math.exp(-0.5 * k * k * t)
        if derivative:
            bound *= k
        if bound < TOL:
            return n
    raise TruncationError(
        f"cosine series tail above tol={TOL} after {MAX_TERMS} modes (t={t})"
    )


def _image_count(t: float, derivative: bool) -> int:
    """Images per side so the next image is below TOL for all |x| <= 1/2."""
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)
    for n in range(1, MAX_TERMS + 1):
        bound = norm * math.exp(-((n - 0.5) ** 2) / (2.0 * t))
        if derivative:
            bound *= (n + 0.5) / t
        if bound < TOL:
            return n
    raise TruncationError(
        f"Gaussian-image tail above tol={TOL} after {MAX_TERMS} images (t={t})"
    )


def _reduce_period(x: np.ndarray) -> np.ndarray:
    """Map x to [-1/2, 1/2] by 1-periodicity to keep the image count minimal."""
    return x - np.round(x)


def eval_K1(x, t: float):
    """Evaluate the 1-periodic heat kernel at x for diffusion time t.

    Parameters
    ----------
    x : float or ndarray
        Evaluation points; any real values (the kernel is 1-periodic).
    t : float
        Diffusion time (squared bandwidth), strictly positive.

    Returns
    -------
    float or ndarray, same shape as x, strictly positive. Summed as
    Gaussian images below ``T_SWITCH`` and as the cosine series above.
    """
    t = validate_time(t)
    return (_image_sum if t < T_SWITCH else _fourier_sum)(x, t, derivative=False)


def eval_K1_dx(x, t: float):
    """Spatial derivative of :func:`eval_K1`; odd in x, zero at x = 0 and 1/2."""
    t = validate_time(t)
    return (_image_sum if t < T_SWITCH else _fourier_sum)(x, t, derivative=True)


def _fourier_sum(x, t: float, derivative: bool):
    """The kernel or its x-derivative as the cosine series, for any t > 0."""
    x_arr = np.asarray(x, dtype=float)
    # d/dx cos(k x) = -k sin(k x)
    wave = np.sin if derivative else np.cos
    out = np.zeros_like(x_arr) if derivative else np.ones_like(x_arr)
    for n in range(1, _fourier_mode_count(t, derivative) + 1):
        k = 2.0 * math.pi * n
        scale = -(2.0 * k) if derivative else 2.0
        out += scale * math.exp(-0.5 * k * k * t) * wave(k * x_arr)
    return float(out) if x_arr.ndim == 0 else out


def _image_sum(x, t: float, derivative: bool):
    """The kernel or its x-derivative as periodized Gaussians, for any t > 0."""
    x_arr = np.asarray(x, dtype=float)
    xr = _reduce_period(x_arr)

    def image(d):
        # d/dx exp(-d^2 / (2t)) = -(d/t) exp(-d^2 / (2t))
        gauss = np.exp(-(d**2) / (2.0 * t))
        return -(d / t) * gauss if derivative else gauss

    out = image(xr)
    for n in range(1, _image_count(t, derivative) + 1):
        out += image(xr - n)
        out += image(xr + n)
    out = (1.0 / math.sqrt(2.0 * math.pi * t)) * out
    return float(out) if x_arr.ndim == 0 else out
