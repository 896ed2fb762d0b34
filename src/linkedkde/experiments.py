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
from .baselines import _cosine_coefficients, _gaussian_coefficients, _gaussian_values, _periodic_plan
from .baselines import cosine_mode_count
from .series_solver import _ELEMENT_BUDGET, _MAX_PERIOD, _TAYLOR_BLOCK, _block_size, _even_modes, _fft_route
from .series_solver import _linked_series, _pdf_transforms, _SpectralFit, _synthesis, _taylor_transforms
from .series_solver import truncation_bound
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
    sample a draw of n alone would give. At each n the bandwidth is chosen
    once per sample (:func:`bandwidth._choose`) and every method is read
    at its record's t, from one transform call of X / P, P the Gaussian's
    period up to 16 (see :func:`_coefficient_rows`), sized from t alone.
    Under LSCV the ``linked`` estimate is read from the record's fit, with
    no transform call of its own, and the call of X / P is made only for
    the baselines. Past the top frequency of any method (t below about
    1.09e-10, the Gaussian's; 1.0e-10 for the ``linked`` series alone)
    every method raises TruncationError, since the shared call is sized
    for all three.

    The replicates are swept in blocks (:func:`_block_errors`) of as many
    as keep the block's draws within ``series_solver._TAYLOR_BLOCK``
    samples and its methods x sizes x replicates x grid array of estimates
    within ``series_solver._ELEMENT_BUDGET`` elements, and at least one:
    six at the largest size 1e4, one past 2^16. So memory is bounded
    whatever ``reps`` is: one block's draws and estimates, a few times
    that in coefficient rows and FFT rows taken in budget-sized calls, and
    three errors per method, size and replicate. Each estimate is bit for
    bit the estimate of its sample alone, so a row depends neither on the
    block, nor on the other methods, nor on the other sample sizes, and
    reruns are byte-for-byte reproducible. Results are reduced in
    replicate order and returned method-major, in the order the methods
    were given. ISE is the squared grid L2 error; the mean L2 and sup-norm
    errors are reported alongside it, by the norms of :func:`_error_norms`
    along the last axis. The transforms take no BLAS product (LSCV's scores
    take matrix-vector products), and the oracle rule's rows were found
    byte-identical at one and two BLAS threads.
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
    info = target.info  # r_true validated by TargetDensityInfo
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
    block = max(1, min(_TAYLOR_BLOCK // max(ns), _ELEMENT_BUDGET // (len(methods) * len(ns) * grid.size)))
    for first in range(0, reps, block):
        seeds = range(seed + first, seed + min(first + block, reps))
        drawn = np.stack([sample_synthetic(target, max(ns), s).values for s in seeds])
        errors = _block_errors(methods, drawn, ns, info, bandwidth_rule, fixed_t, grid, truth)
        last = first + len(drawn)
        l2[..., first:last], linf[..., first:last] = errors
        # a Python float's ** 2 (C pow), as rows were always squared; numpy's l2 * l2 can differ in the last bit
        ise[..., first:last] = np.reshape([value**2 for value in errors[0].ravel().tolist()], errors[0].shape)
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


def _block_errors(methods, drawn: np.ndarray, ns, info, rule: str, fixed_t, grid: EvaluationGrid, truth: np.ndarray):
    """Grid L2 and sup-norm errors, methods x sizes x replicates, of a block of draws, the rows of ``drawn``.

    At each size n, each replicate's prefix of n values gets its bandwidth
    record, and the replicates that share a t share the transform calls
    of :func:`_coefficient_rows`: under ``oracle`` and ``fixed`` all of
    them, under ``silverman`` and ``lscv`` one each. A method's rows that
    :func:`series_solver._synthesis` takes by inverse FFT wait for the end
    of the block, where every (size, replicate) row of one period is
    zero-padded to the longest and synthesized by one inverse FFT, in calls
    of at most ``_block_size`` rows of the FFT length; a row on the Taylor
    cells is synthesized at once, row by row, as long rows may be. Then one
    :func:`_error_norms` pass takes the whole methods x sizes x replicates x
    grid array.
    """
    r = float(info.r_true)
    estimates = np.empty((len(methods), len(ns), len(drawn), grid.size))
    waiting = [{} for _ in methods]  # per method and period: (size, replicates, coefficient rows)
    for i, n in enumerate(ns):
        selections = [_choose(SampleSet(values[:n]), r, rule, fixed_t, info) for values in drawn]
        sharing = {}
        for j, selection in enumerate(selections):
            sharing.setdefault(selection.t, []).append(j)
        for t, members in sharing.items():
            fits = [selections[j].fit for j in members]
            rows = _coefficient_rows(methods, drawn[members, :n], r, t, fits)
            for m, (period, coef) in enumerate(rows):
                if _fft_route(coef.shape[-1], period, grid.divisions):
                    waiting[m].setdefault(period, []).append((i, members, coef))
                else:
                    estimates[m, i, members] = _estimate_rows(methods[m], r, coef, period, grid)
    for m, name in enumerate(methods):
        for period, entries in waiting[m].items():
            sizes = np.concatenate([np.full(len(members), i) for i, members, _ in entries])
            replicates = np.concatenate([members for _, members, _ in entries])
            coef = np.zeros((len(sizes), max(rows.shape[-1] for _, _, rows in entries)), dtype=complex)
            low = 0
            for _, _, rows in entries:
                coef[low : low + len(rows), : rows.shape[-1]] = rows
                low += len(rows)
            step = _block_size(2 * period * grid.divisions - 1)
            for low in range(0, len(coef), step):
                part = slice(low, low + step)
                estimates[m, sizes[part], replicates[part]] = _estimate_rows(name, r, coef[part], period, grid)
    estimates -= truth
    return _error_norms(estimates, grid.points)


def _coefficient_rows(methods, values: np.ndarray, r: float, t: float, fits) -> list:
    """``(P, rows)`` for each method at time t: the period and coefficient rows of each sample in the rows of ``values``.

    Every row but an LSCV-fitted ``linked`` one (whose ``fits`` give the
    coefficients at the ``truncation_bound(t)`` modes t needs) reads one
    call of transforms of X / P for all the samples, P the period of the
    Gaussian at t (2 up to t of about 0.0136, see
    :func:`baselines._periodic_plan`): the Gaussian takes its K modes, the
    linked series every P-th mode and the cosine baseline every
    (P / 2)-th, the modes of X / 2, each by one strided read
    (:func:`series_solver._even_modes`). The call takes at least P modes,
    so past the longest period of the FFT route of
    :func:`series_solver._synthesis`, P = 16 (t above about 3), it is of
    X / 2 instead and the Gaussian makes its own call of X / P, at its own
    K; P grows like sqrt(t) with no bound. The call is made when the first
    method reads it, sized from t alone for every method that could read
    it, so a method's values do not depend on the others; past the top
    frequency of any of the three (t below about 1.09e-10, the Gaussian's)
    TruncationError is raised for every method.
    """
    n_linked = truncation_bound(t)
    n_cosine = cosine_mode_count(t)
    period, n_gaussian = _periodic_plan(t)
    scale = period if period <= _MAX_PERIOD else 2
    size = max(scale * n_linked, scale // 2 * n_cosine, n_gaussian if scale == period else 0)
    shared = functools.cache(lambda: _taylor_transforms(values / scale, size))
    half = scale // 2  # the stride of the modes of X / 2

    rows = []
    for name in methods:
        if name == "linked" and fits[0] is not None:
            rows.append((1, np.stack([fit.trimmed(t).coefficients(t) for fit in fits])))
        elif name == "linked":
            rows.append((1, _SpectralFit(r, n_linked, _even_modes(shared(), n_linked, scale)).coefficients(t)))
        elif name == "cosine":
            rows.append((2, _cosine_coefficients(1.0, shared().c0[:, half : half * n_cosine + 1 : half], t)))
        else:
            tr = shared() if scale == period else _taylor_transforms(values / period, n_gaussian)
            rows.append((period, _gaussian_coefficients(tr, period, n_gaussian, t)))
    return rows


def _estimate_rows(name: str, r: float, coef: np.ndarray, period: int, grid: EvaluationGrid) -> np.ndarray:
    """The estimates of method ``name`` on the grid from its coefficient rows of period P."""
    if name == "linked":
        return _linked_series(r, coef, grid.points, grid.divisions)
    if name == "cosine":
        return _synthesis(coef, 2, grid.points, grid.divisions)
    return _gaussian_values(coef, period, grid.points, grid.divisions)


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
    return _synthesis(_cosine_coefficients(c0[0], c0[1:], t), 2, x_arr)
