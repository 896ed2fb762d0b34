"""Benchmark orchestration: replicated error sweeps and deterministic bias oracles.

``run_mise_experiment`` reproduces the synthetic-data protocol: each seeded
replicate is drawn once at the largest sample size, and at every size its
prefix is estimated with each chosen method and a bandwidth rule, every
method reading one set of transforms of the prefix divided by P; errors
on the evaluation grid against the analytic truth are averaged over the
replicates. ``expected_linked_density`` and ``expected_cosine_density``
compute the exact estimator mean ``E f(x, t) = int K(x, y, t) f_X(y) dy``,
the estimator's own series started from the target pdf instead of a sample,
isolating the deterministic bias from sampling noise.
"""

from __future__ import annotations

import functools
import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bandwidth import _check_rule, _choose
from .baselines import _cosine_series, _gaussian_series, _periodic_plan
from .baselines import cosine_mode_count, gaussian_kde_baseline
from .series_solver import _MAX_PERIOD, _even_modes, _pdf_transforms, _SpectralFit
from .series_solver import empirical_transforms, truncation_bound
from .targets import SyntheticTarget, sample_synthetic
from .types import EvaluationGrid, SampleSet, _check_unit_interval
from .types import validate_ratio, validate_time

METHODS = ("linked", "cosine", "gaussian")


@dataclass(frozen=True)
class ExperimentRow:
    """Replicate-averaged errors at one sample size."""

    method: str
    n: int
    reps: int
    mean_ise: float
    mean_l2: float
    mean_linf: float


def run_mise_experiment(
    target: SyntheticTarget,
    method: str | Sequence[str],
    ns,
    reps: int,
    bandwidth_rule: str = "oracle",
    seed: int = 0,
    fixed_t: float | None = None,
) -> list[ExperimentRow]:
    """Replicated error sweep over sample sizes for one method or several.

    ``method`` is one name from ``METHODS`` or a sequence of them, each
    read at ``target.info.r_true`` and scored on ``EvaluationGrid.uniform(1001)``.
    ``bandwidth_rule`` is ``oracle`` (the AMISE oracle of ``target.info``),
    ``silverman``, ``lscv`` or ``fixed``, which reads its t from
    ``fixed_t``; ``fixed_t`` goes with ``fixed`` only. Every method name,
    every sample size (each must be at least 1) and the rule with its
    ``fixed_t`` are checked before any sample is drawn. Replicate j draws
    one sample of the largest size in ``ns`` with seed ``seed + j``, and
    each n scores its first n values: a draw is a prefix of any larger
    draw with the same seed (see :func:`sample_synthetic`), so this is the
    sample a draw of n alone would give, and only one sample is held at a
    time. At each n the bandwidth is chosen once (:func:`bandwidth._choose`)
    and every method is read at its record's t, scored on that sample from
    one transform call of X / P, P the Gaussian's period up to 16 (see
    :func:`_estimates`), sized from t alone, so reruns are byte-for-byte
    reproducible and a row depends neither on the other methods nor on the
    other sample sizes. Under LSCV the ``linked`` estimate is read from
    the record's fit, with no transform call of its own, and the call of
    X / P is made only for the baselines. Past the top frequency of
    any method (t below about 1.09e-10, the Gaussian's; 1.0e-10 for the
    ``linked`` series alone) every method raises TruncationError, since the
    shared call is sized for all three. Results are reduced in
    replicate order and returned method-major, in the order the methods
    were given. ISE is the squared grid L2 error; the mean L2 and sup-norm
    errors are reported alongside it. The methods of one sample are scored
    in one error pass over their methods x grid array of estimates, by the
    norms of :func:`_error_norms` along the last axis. The transforms take
    no BLAS product (LSCV's scores take matrix-vector products), and the
    oracle rule's rows were found byte-identical at one and two BLAS
    threads.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    if not methods:
        raise ValueError("need at least one method")
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {name!r}")
    if reps < 1:
        raise ValueError("need at least one replicate")
    grid = EvaluationGrid.uniform(1001)
    r = float(target.info.r_true)  # validated by TargetDensityInfo
    truth = target.pdf(grid.points)
    ns = [int(n) for n in ns]
    for n in ns:
        if n < 1:
            raise ValueError(f"sample sizes must be positive, got {n}")
    _check_rule(bandwidth_rule, fixed_t)
    if not ns:
        return []

    # errors per method, sample size and replicate
    ise = np.empty((len(methods), len(ns), reps))
    l2 = np.empty_like(ise)
    linf = np.empty_like(ise)
    for j in range(reps):
        drawn = sample_synthetic(target, max(ns), seed + j).values
        for i, n in enumerate(ns):
            samples = SampleSet(drawn[:n])
            selection = _choose(samples, r, bandwidth_rule, fixed_t, target.info)
            diff = _estimates(methods, samples, r, selection.t, grid, selection.fit)
            diff -= truth
            l2[:, i, j], linf[:, i, j] = _error_norms(diff, grid.points)
            # a Python float's ** 2 (C pow), as rows were always squared; numpy's l2 * l2 can differ in the last bit
            ise[:, i, j] = [value**2 for value in l2[:, i, j].tolist()]
    # along the contiguous last axis: the sums of one mean per row
    ise, l2, linf = (errors.mean(axis=2).tolist() for errors in (ise, l2, linf))
    return [
        ExperimentRow(
            method=name,
            n=n,
            reps=reps,
            mean_ise=ise[m][i],
            mean_l2=l2[m][i],
            mean_linf=linf[m][i],
        )
        for m, name in enumerate(methods)
        for i, n in enumerate(ns)
    ]


def _estimates(methods, samples: SampleSet, r: float, t: float, grid: EvaluationGrid, fit) -> np.ndarray:
    """The estimates of the methods on one sample at time t: a methods x grid array, in the order of ``methods``.

    Every estimate but an LSCV-fitted ``linked`` one reads a single call of
    transforms of X / P, P the period of the Gaussian at t (2 up to t of
    about 0.0136, see :func:`baselines._periodic_plan`): the Gaussian takes
    its K modes, the linked series every P-th mode and the cosine baseline
    every (P / 2)-th, the modes of X / 2, each by one strided read
    (:func:`series_solver._even_modes`). The call takes at least P modes,
    so past the longest period of the FFT route of
    :func:`series_solver._synthesis`, P = 16 (t above about 3), it is of
    X / 2 instead and the Gaussian is :func:`gaussian_kde_baseline`, at its
    own K; P grows like sqrt(t) with no bound. The call is made when the
    first estimate reads it, sized from t alone for every method that
    could read it, so a method's values do not depend on the others; past
    the top frequency of any of the three (t below about 1.09e-10, the
    Gaussian's) TruncationError is raised for every method.
    """
    n_linked = truncation_bound(t)
    n_cosine = cosine_mode_count(t)
    period, n_gaussian = _periodic_plan(t)
    scale = period if period <= _MAX_PERIOD else 2
    size = max(scale * n_linked, scale // 2 * n_cosine, n_gaussian if scale == period else 0)
    shared = functools.cache(lambda: empirical_transforms(samples.values / scale, size))
    half = scale // 2  # the stride of the modes of X / 2

    estimates = np.empty((len(methods), grid.points.size))
    for row, name in zip(estimates, methods):
        if name == "linked" and fit is not None:
            row[:] = fit.evaluate(t, grid)
        elif name == "linked":
            row[:] = _SpectralFit(r, n_linked, _even_modes(shared(), n_linked, scale)).evaluate(t, grid)
        elif name == "cosine":
            row[:] = _cosine_series(1.0, shared().c0[half : half * n_cosine + 1 : half], t, grid.points, grid.divisions)
        elif scale == period:
            row[:] = _gaussian_series(shared(), period, n_gaussian, t, grid.points, grid.divisions)
        else:
            row[:] = gaussian_kde_baseline(samples, t, grid).values
    return estimates


def _error_norms(diff: np.ndarray, x: np.ndarray):
    """Grid L2 (trapezoid over the points x) and sup norms of ``diff`` along its last axis."""
    return np.sqrt(np.trapezoid(diff * diff, x)), np.abs(diff).max(axis=-1)


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    """Render experiment rows as CSV with 17 significant digits."""
    out = io.StringIO()
    out.write("method,n,reps,mean_ise,mean_l2,mean_linf\n")
    for row in rows:
        out.write(
            f"{row.method},{row.n},{row.reps},"
            f"{row.mean_ise:.17g},{row.mean_l2:.17g},{row.mean_linf:.17g}\n"
        )
    return out.getvalue()


def rate_fit(ns, mean_errors) -> float:
    """Least-squares slope of log(mean_error) against log(n).

    Raises ValueError unless sizes and errors are matching lists of finite
    positive values with at least two distinct sizes.
    """
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(mean_errors, dtype=float)
    if ns.shape != errs.shape or ns.size < 2:
        raise ValueError("need matching lists of at least two points")
    if not (np.all(np.isfinite(ns)) and np.all(np.isfinite(errs))):
        raise ValueError("rate fitting needs finite sizes and errors")
    if np.any(ns <= 0.0) or np.any(errs <= 0.0):
        raise ValueError("rate fitting needs positive sizes and errors")
    if np.unique(ns).size < 2:
        raise ValueError("rate fitting needs at least two distinct sizes")
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    return float(slope)


def expected_linked_density(target_pdf, r: float, t: float, x) -> np.ndarray:
    """Estimator mean E f(x, t) = int K(r; x, y, t) f_X(y) dy at the points x.

    The series from the pdf's c0, s0 and s1 at ``truncation_bound(t)``
    modes, summed at the points on the Taylor cells. The transforms are a
    composite Gauss-Legendre rule, about 12.6 N + 3100 nodes weighted by the
    pdf, on the Taylor cells of the sample transforms
    (:func:`series_solver._pdf_transforms`): exact to round-off for a pdf
    smooth inside [0, 1], algebraic end terms such as x^(1/2) included.
    Raises TruncationError past the series' mode cap (t below about
    1.0e-10), and takes about 4 s there.
    """
    r = validate_ratio(r)
    t = validate_time(t)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_unit_interval(x_arr, "x")
    N = truncation_bound(t)
    return _SpectralFit(r, N, _pdf_transforms(target_pdf, N)).series(t, x_arr)


def expected_cosine_density(target_pdf, t: float, x) -> np.ndarray:
    """Mean of the reflecting-end estimate at the points x.

    The series of :func:`cosine_kde` with its coefficients, the means of
    cos(k pi X), read as the pdf's transforms c0 of X / 2. Raises
    TruncationError past the linked series' top frequency (t below about
    8.1e-11, see :func:`baselines.cosine_mode_count`), before any
    transform is taken.
    """
    t = validate_time(t)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_unit_interval(x_arr, "x")
    c0 = _pdf_transforms(target_pdf, cosine_mode_count(t), scale=0.5).c0
    return _cosine_series(c0[0], c0[1:], t, x_arr)
