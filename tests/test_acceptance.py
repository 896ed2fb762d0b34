"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see all
lines). Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

import linkedkde as lk
from linkedkde.series_solver import transforms_from_functions


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_configurations(count=25, seed=20240):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 501))
        r = float(rng.choice([0.0, 0.5, 1.0, 2.0, 10.0]))
        t = float(np.exp(rng.uniform(math.log(1e-3), 0.0)))
        yield lk.SampleSet(rng.random(n)), r, t


GRID_2001 = lk.EvaluationGrid.uniform(2001)
_CACHE = {}


def shared_estimates():
    """The 25-configuration batch reused by the first three criteria."""
    if "estimates" not in _CACHE:
        start = time.time()
        data = [
            (r, t, lk.estimate_density(samples, r, t, GRID_2001))
            for samples, r, t in random_configurations()
        ]
        _CACHE["estimates"] = (data, time.time() - start)
    return _CACHE["estimates"]


def test_c01_mass_conservation():
    estimates, elapsed = shared_estimates()
    worst = max(abs(est.mass() - 1.0) for _, _, est in estimates)
    report(
        "1 mass-conservation",
        worst <= 1e-5 and elapsed < 10.0,
        f"worst |mass-1| {worst:.2e}, batch {elapsed:.1f}s",
    )


def test_c02_positivity():
    estimates, _ = shared_estimates()
    worst = min(est.values.min() for _, _, est in estimates)
    report("2 positivity", worst >= -1e-12, f"min value {worst:.2e}")


def test_c03_linked_boundary():
    estimates, _ = shared_estimates()
    worst = max(
        abs(est.boundary_residual()) / np.abs(est.values).max() for _, _, est in estimates
    )
    ghosts_exact = True
    rng = np.random.default_rng(1)
    for _ in range(100):
        u1, um = rng.random(2)
        r = float(rng.random() * 9.0)
        u0, um1 = lk.ghost_values(u1, um, r)
        ghosts_exact &= u0 == r * um1
    report(
        "3 linked-boundary",
        worst <= 1e-10 and ghosts_exact,
        f"worst residual {worst:.2e}, ghost identity exact: {ghosts_exact}",
    )


def test_c04_dual_representation_oracle():
    start = time.time()
    xs = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for r in (0.0, 0.5, 2.0, 10.0):
        for t in (1e-3, 1e-2, 0.1, 1.0):
            tr = lk.empirical_transforms([0.37], lk.truncation_bound(t))
            series = lk.eval_series_solution(tr, r, t, xs)
            kernel = lk.eval_linked_kernel(r, xs, 0.37, t)
            worst = max(worst, float(np.abs(series - kernel).max()))
    elapsed = time.time() - start
    report("4 dual-representation", worst <= 1e-9 and elapsed < 5.0,
           f"sup diff {worst:.2e}, {elapsed:.2f}s")


def test_c05_spectral_exactness():
    ok = True
    details = []
    for m in (3, 10, 50, 200):
        for r in (0.5, 2.0, 10.0):
            sd = lk.spectral_data(m, r)
            a = lk.build_four_corners(m, r)
            res = sd.residuals().max()
            trace_err = abs(sd.eigenvalues.sum() - np.trace(a.to_dense()))
            zeros = int(np.count_nonzero(sd.eigenvalues == 0.0))
            w0_res = np.abs(a.matvec(sd.stationary)).max()
            ok &= res <= 1e-10 and trace_err <= 1e-10 and zeros == 1 and w0_res <= 1e-12
            details.append(res)
    eigs = np.sort(lk.spectral_data(3, 2.0).eigenvalues)
    char = np.poly(lk.build_four_corners(3, 2.0).to_dense())
    ok &= np.allclose(eigs, [0.0, 2.0, 3.0], atol=1e-13)
    ok &= np.allclose(char, [1.0, -5.0, 6.0, 0.0], atol=1e-12)
    report("5 spectral-exactness", ok, f"max residual {max(details):.2e}")


def test_c06_stability_bound():
    start = time.time()
    worst_excess = -np.inf
    for m in (10, 50, 100):
        for r in (0.5, 2.0, 10.0):
            a = lk.build_four_corners(m, r).to_dense()
            step = np.linalg.inv(np.eye(m) + a)
            bound = max(2.0 * r / (1.0 + r), 2.0 / (1.0 + r))
            for K in (1, 10, 100, 10_000):
                norm = np.abs(np.linalg.matrix_power(step, K)).sum(axis=1).max()
                worst_excess = max(worst_excess, norm - bound)
    elapsed = time.time() - start
    report("6 stability-bound", worst_excess <= 1e-10 and elapsed < 30.0,
           f"worst norm minus bound {worst_excess:.2e}, {elapsed:.1f}s")


def test_c07_discrete_to_continuous_convergence():
    # initial profile 6/11 (-2x^2 + x + 2) with ratio 2 at t = 0.05; the
    # sup-node error against the series solution must shrink by a factor in
    # [3, 5] per doubling of m
    start = time.time()

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

    t = 0.05
    r = 2.0
    tr = transforms_from_functions(c0, s0, s1, lk.truncation_bound(t))
    errors = []
    for m in (50, 100, 200, 400):
        grid = lk.BinnedGrid(m)
        x = grid.interior_x
        u = lk.BinnedDensity(grid=grid, interior=(6.0 / 11.0) * (-2.0 * x * x + x + 2.0), r=r)
        evolved = lk.backward_euler_evolve(u, t)
        reference = lk.eval_series_solution(tr, r, t, x)
        errors.append(float(np.abs(evolved.interior - reference).max()))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    elapsed = time.time() - start
    ok = all(3.0 <= ratio <= 5.0 for ratio in ratios) and elapsed < 20.0
    report(
        "7 discrete-convergence",
        ok,
        "doubling ratios " + ", ".join(f"{v:.2f}" for v in ratios) + f"; {elapsed:.1f}s",
    )


def test_c08_mise_rate_matching_case():
    start = time.time()
    target = lk.cosine_bump(0.5)
    ns = [100, 316, 1000, 3162, 10000]
    rows = lk.run_mise_experiment(target, "linked", ns, reps=20, bandwidth_rule="oracle", seed=42)
    slope = lk.rate_fit(ns, [row.mean_ise for row in rows])
    elapsed = time.time() - start
    report("8 mise-rate", -0.95 <= slope <= -0.65 and elapsed < 300.0,
           f"ISE slope {slope:.3f}, {elapsed:.1f}s")


def test_c09_boundary_rate_separation():
    start = time.time()
    target = lk.beta_mixture(2.0)
    t = 1e-3
    truth0 = float(target.pdf(np.array(0.0)))
    linked = abs(lk.expected_linked_density(target.pdf, 0.5, t, [0.0])[0] - truth0)
    cosine = abs(lk.expected_cosine_density(target.pdf, t, [0.0])[0] - truth0)
    elapsed = time.time() - start
    report("9 rate-separation", linked <= 0.2 * cosine and elapsed < 10.0,
           f"linked bias {linked:.2e} vs cosine {cosine:.2e}, {elapsed:.1f}s")


def test_c10_r_estimator():
    start = time.time()
    target = lk.beta_mixture(2.0)
    hits = 0
    for seed in range(10):
        estimate = lk.estimate_r(lk.sample_synthetic(target, 10**5, seed))
        hits += 0.35 <= estimate <= 0.65
    elapsed = time.time() - start
    report("10 r-estimator", hits >= 9 and elapsed < 30.0, f"{hits}/10 in window, {elapsed:.1f}s")


def test_c11_oversmoothing_limit():
    worst = 0.0
    rng = np.random.default_rng(6)
    samples = rng.random(64)
    for r in (0.5, 2.0):
        est = lk.estimate_density(samples, r, 50.0)
        intercept, slope = lk.stationary_density(r)
        stationary = intercept + slope * est.grid.points
        worst = max(worst, float(np.abs(est.values - stationary).max()))
    report("11 oversmoothing", worst <= 1e-10, f"sup distance {worst:.2e}")


def test_c12_amise_closed_form_optimum():
    info = lk.cosine_bump(0.5).info
    n = 1000
    t_star = lk.oracle_amise_bandwidth(n, info).t
    at_star = lk.amise_value(t_star, n, info)
    closed = (
        5.0 * info.f_second_norm_sq**0.2 / (2.0 ** 2.8 * math.pi**0.4) * n ** (-0.8)
    )
    rel = abs(at_star - closed) / closed
    grid_ok = all(
        at_star <= lk.amise_value(float(t), n, info)
        for t in np.geomspace(t_star / 100.0, t_star * 100.0, 100)
    )
    report("12 amise-optimum", rel <= 1e-12 and grid_ok,
           f"relative gap {rel:.2e}, global argmin on log grid: {grid_ok}")
