"""Benchmark orchestration: replicated error sweeps and deterministic bias oracles.

``run_mise_experiment`` reproduces the synthetic-data protocol: for each
sample size it draws seeded replicates, estimates the density with a chosen
method and bandwidth rule, measures errors on the evaluation grid against
the analytic truth, and averages. ``expected_linked_density`` and
``expected_cosine_density`` compute the exact estimator mean
``E f(x, t) = int K(x, y, t) f_X(y) dy`` by quadrature, isolating the
deterministic bias from sampling noise.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .bandwidth import DEFAULT_LSCV_GRID, BandwidthSelection, lscv_bandwidth, oracle_amise_bandwidth, silverman_bandwidth
from .baselines import cosine_kde, cosine_mode_count, gaussian_kde_baseline
from .linked_kernel import estimate_density, eval_linked_kernel
from .metrics import error_metrics
from .targets import SyntheticTarget, sample_synthetic
from .types import EvaluationGrid, SampleSet, validate_ratio, validate_time

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


def select_bandwidth(
    rule: str,
    samples: SampleSet,
    target: SyntheticTarget,
    r: float,
    fixed_t: float | None = None,
    lscv_grid=None,
) -> BandwidthSelection:
    """Resolve a bandwidth rule name into a concrete selection."""
    if rule == "oracle":
        return oracle_amise_bandwidth(samples.n, target.info)
    if rule == "silverman":
        return silverman_bandwidth(samples)
    if rule == "lscv":
        return lscv_bandwidth(samples, r, DEFAULT_LSCV_GRID if lscv_grid is None else lscv_grid)
    if rule == "fixed":
        if fixed_t is None:
            raise ValueError("fixed bandwidth rule needs a value for t")
        return BandwidthSelection(t=float(fixed_t), rule="fixed")
    raise ValueError(f"unknown bandwidth rule {rule!r}")


def run_mise_experiment(
    target: SyntheticTarget,
    method: str,
    ns,
    reps: int,
    bandwidth_rule: str = "oracle",
    seed: int = 0,
    grid: EvaluationGrid | None = None,
    r: float | None = None,
    fixed_t: float | None = None,
) -> list[ExperimentRow]:
    """Replicated error sweep over sample sizes for one method.

    Replicate j draws its sample with seed ``seed + j``, so reruns are
    byte-for-byte reproducible; results are reduced in replicate order.
    ISE is the squared grid L2 error; the mean L2 and sup-norm errors are
    reported alongside it.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if reps < 1:
        raise ValueError("need at least one replicate")
    if grid is None:
        grid = EvaluationGrid.uniform(1001)
    r_eff = validate_ratio(target.info.r_true if r is None else r)
    truth = target.pdf(grid.points)

    rows = []
    for n in ns:
        n = int(n)
        ise = np.empty(reps)
        l2 = np.empty(reps)
        linf = np.empty(reps)
        for j in range(reps):
            samples = sample_synthetic(target, n, seed + j)
            sel = select_bandwidth(bandwidth_rule, samples, target, r_eff, fixed_t)
            if method == "linked":
                est = estimate_density(samples, r_eff, sel.t, grid)
            elif method == "cosine":
                est = cosine_kde(samples, sel.t, grid)
            else:
                est = gaussian_kde_baseline(samples, sel.t, grid)
            report = error_metrics(est, truth, n=n, method=method, seed=seed + j)
            ise[j] = report.l2 ** 2
            l2[j] = report.l2
            linf[j] = report.linf
        rows.append(
            ExperimentRow(
                method=method,
                n=n,
                reps=reps,
                mean_ise=float(ise.mean()),
                mean_l2=float(l2.mean()),
                mean_linf=float(linf.mean()),
            )
        )
    return rows


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


def expected_linked_density(
    target_pdf, r: float, t: float, x, quad_points: int = 4001
) -> np.ndarray:
    """Estimator mean E f(x, t) = int K(r; x, y, t) f_X(y) dy by trapezoid."""
    r = validate_ratio(r)
    t = validate_time(t)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.linspace(0.0, 1.0, quad_points)
    fy = np.asarray(target_pdf(ys), dtype=float)
    out = np.empty(x_arr.size)
    for i, xi in enumerate(x_arr):
        out[i] = np.trapezoid(eval_linked_kernel(r, xi, ys, t) * fy, ys)
    return out


def expected_cosine_density(target_pdf, t: float, x, quad_points: int = 4001) -> np.ndarray:
    """Mean of the reflecting-end estimate, via quadrature cosine transforms."""
    t = validate_time(t)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.linspace(0.0, 1.0, quad_points)
    fy = np.asarray(target_pdf(ys), dtype=float)
    n_modes = cosine_mode_count(t)
    k = np.arange(1, n_modes + 1)
    a0 = np.trapezoid(fy, ys)
    coef = np.trapezoid(np.cos(math.pi * k[:, None] * ys[None, :]) * fy[None, :], ys, axis=1)
    decay = np.exp(-0.5 * (k * math.pi) ** 2 * t)
    return a0 + 2.0 * (decay * coef) @ np.cos(math.pi * np.outer(k, x_arr))
