"""Periodic heat kernel on the unit circle and its spatial derivative.

The kernel has two classical summation forms related by Poisson summation:

* a Fourier cosine series ``1 + 2 sum_n exp(-k_n^2 t / 2) cos(k_n x)`` with
  ``k_n = 2 pi n``, which converges fast for large ``t``;
* a periodized Gaussian ``(2 pi t)^{-1/2} sum_n exp(-(x - n)^2 / (2 t))``,
  which converges fast for small ``t``.

``eval_K1`` and ``eval_K1_dx`` pick the cheaper form automatically and
truncate once the monotone bound on the next term drops below the requested
tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .types import DEFAULT_CONTROL, SummationControl, TruncationError, validate_time

# Below this time the Gaussian-image sum needs <= 4 images per side at
# tol = 1e-14, above it the cosine series needs only a handful of modes;
# the crossover equalizes the term counts of the two dual forms.
T_SWITCH = 1.0 / (2.0 * math.pi)

_FORMS = ("auto", "fourier", "images")


def _fourier_mode_count(t: float, ctl: SummationControl, derivative: bool) -> int:
    """Smallest mode index whose term bound falls below tol (inclusive cap)."""
    for n in range(1, ctl.max_terms + 1):
        k = 2.0 * math.pi * n
        bound = 2.0 * math.exp(-0.5 * k * k * t)
        if derivative:
            bound *= k
        if bound < ctl.tol:
            return n
    raise TruncationError(
        f"cosine series tail above tol={ctl.tol} after {ctl.max_terms} modes (t={t})"
    )


def _image_count(t: float, ctl: SummationControl, derivative: bool) -> int:
    """Images per side so the next image is below tol for all |x| <= 1/2."""
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)
    for n in range(1, ctl.max_terms + 1):
        bound = norm * math.exp(-((n - 0.5) ** 2) / (2.0 * t))
        if derivative:
            bound *= (n + 0.5) / t
        if bound < ctl.tol:
            return n
    raise TruncationError(
        f"Gaussian-image tail above tol={ctl.tol} after {ctl.max_terms} images (t={t})"
    )


def _reduce_period(x: np.ndarray) -> np.ndarray:
    """Map x to [-1/2, 1/2] by 1-periodicity to keep the image count minimal."""
    return x - np.round(x)


def _resolve_form(form: str, t: float) -> str:
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")
    if form == "auto":
        return "images" if t < T_SWITCH else "fourier"
    return form


def eval_K1(x, t: float, ctl: SummationControl = DEFAULT_CONTROL, form: str = "auto"):
    """Evaluate the 1-periodic heat kernel at x for diffusion time t.

    Parameters
    ----------
    x : float or ndarray
        Evaluation points; any real values (the kernel is 1-periodic).
    t : float
        Diffusion time (squared bandwidth), strictly positive.
    ctl : SummationControl
        Truncation tolerance and term cap.
    form : {"auto", "fourier", "images"}
        Summation form; "auto" switches at ``T_SWITCH``.

    Returns
    -------
    float or ndarray, same shape as x, strictly positive.
    """
    return _sum_kernel(x, t, ctl, form, derivative=False)


def eval_K1_dx(x, t: float, ctl: SummationControl = DEFAULT_CONTROL, form: str = "auto"):
    """Spatial derivative of :func:`eval_K1`; odd in x, zero at x = 0 and 1/2."""
    return _sum_kernel(x, t, ctl, form, derivative=True)


def _sum_kernel(x, t: float, ctl: SummationControl, form: str, derivative: bool):
    """The kernel or its x-derivative, summed in the form chosen for t."""
    t = validate_time(t)
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0

    if _resolve_form(form, t) == "fourier":
        # d/dx cos(k x) = -k sin(k x)
        wave = np.sin if derivative else np.cos
        out = np.zeros_like(x_arr, dtype=float) if derivative else np.ones_like(x_arr, dtype=float)
        for n in range(1, _fourier_mode_count(t, ctl, derivative) + 1):
            k = 2.0 * math.pi * n
            scale = -(2.0 * k) if derivative else 2.0
            out += scale * math.exp(-0.5 * k * k * t) * wave(k * x_arr)
    else:
        xr = _reduce_period(x_arr)

        def image(d):
            # d/dx exp(-d^2 / (2t)) = -(d/t) exp(-d^2 / (2t))
            gauss = np.exp(-(d**2) / (2.0 * t))
            return -(d / t) * gauss if derivative else gauss

        out = image(xr)
        for n in range(1, _image_count(t, ctl, derivative) + 1):
            out += image(xr - n)
            out += image(xr + n)
        out = (1.0 / math.sqrt(2.0 * math.pi * t)) * out

    return float(out) if scalar else out
