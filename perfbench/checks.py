"""Output checks for the benchmark, written independently of linkedkde.

Every check returns a list of failure messages; an empty list means the
output passed. Nothing here imports the package under test, so a change
to the package cannot change what counts as a correct output.
"""

from __future__ import annotations

import math

import numpy as np

MASS_TOL = 1e-6  # trapezoid mass is 1 + O(h^4) on the 1001-point grid
NEG_TOL = 1e-9
RATIO_TOL = 1e-9
SPOT_TOL = 1e-8  # kernel sum vs series; the package agrees to ~1e-12
BINNED_MASS_TOL = 1e-9
BINNED_RATIO_TOL = 1e-12
# Backward Euler is first order in dt = 2 h^2; at the seed the two binned
# propagators differ by 3-7e-6 at m = 1599 (dt = 7.8e-7), well inside this.
BE_SPECTRAL_DT_FACTOR = 50.0


def window_ratio(samples: np.ndarray) -> float:
    """Boundary ratio by the documented window-count rule.

    count(X < n^{-1/2}) / count(X > 1 - n^{-1/2}), strict inequalities;
    r = 1 when the right window is empty (the CLI's documented fallback).
    """
    x = np.asarray(samples, dtype=float)
    thr = 1.0 / math.sqrt(x.size)
    left = int(np.count_nonzero(x < thr))
    right = int(np.count_nonzero(x > 1.0 - thr))
    return 1.0 if right == 0 else left / right


def silverman_t(samples: np.ndarray) -> float:
    """Silverman's squared bandwidth ((4/(3n))^{1/5} min(std, IQR/1.34))^2."""
    x = np.asarray(samples, dtype=float)
    sigma = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    if q75 - q25 > 0.0:
        sigma = min(sigma, float(q75 - q25) / 1.34)
    bw = (4.0 / (3.0 * x.size)) ** 0.2 * sigma
    return bw * bw


def series_density(samples: np.ndarray, r: float, t: float, x: np.ndarray) -> np.ndarray:
    """The paper's eigenfunction series for the linked estimate, mode by mode.

    f(x,t) = 2/(1+r) phi_0(x) + sum_n 4 exp(-k^2 t/2)/(1+r) { c0 phi_n(x)
             - k t (1-r) c0 sin(kx) + [s0 - (1-r) s1] sin(kx) },
    k = 2 pi n, phi_n(x) = (r + (1-r) x) cos(kx), c0, s0, s1 the sample
    means of cos(kX), sin(kX), X sin(kX).
    """
    xs = np.asarray(samples, dtype=float)
    x = np.asarray(x, dtype=float)
    lin = r + (1.0 - r) * x
    out = 2.0 / (1.0 + r) * lin
    n_modes = int(math.ceil(math.sqrt(2.0 * 40.0 / t) / (2.0 * math.pi))) + 2
    for n in range(1, n_modes + 1):
        k = 2.0 * math.pi * n
        c0 = float(np.mean(np.cos(k * xs)))
        s0 = float(np.mean(np.sin(k * xs)))
        s1 = float(np.mean(xs * np.sin(k * xs)))
        term = c0 * lin * np.cos(k * x) + (s0 - (1.0 - r) * s1 - k * t * (1.0 - r) * c0) * np.sin(k * x)
        out = out + 4.0 * math.exp(-0.5 * k * k * t) / (1.0 + r) * term
    return out


def check_density(x: np.ndarray, f: np.ndarray, r: float, grid: int = 1001) -> list[str]:
    """Unit trapezoid mass, no negative values and f(0) = r f(1) on the grid."""
    bad = []
    if x.shape != (grid,) or f.shape != (grid,):
        return [f"expected {grid} grid points, got x{x.shape} f{f.shape}"]
    if not (np.all(np.isfinite(f)) and x[0] == 0.0 and x[-1] == 1.0):
        return ["non-finite values or grid not spanning [0, 1]"]
    mass = float(np.trapezoid(f, x))
    if abs(mass - 1.0) > MASS_TOL:
        bad.append(f"mass {mass!r} is not 1")
    if f.min() < -NEG_TOL:
        bad.append(f"negative value {f.min()!r}")
    resid = f[0] - r * f[-1]
    if abs(resid) > RATIO_TOL * max(1.0, abs(f[0])):
        bad.append(f"f(0) - r f(1) = {resid!r} with r = {r!r}")
    return bad


def check_spots(samples, r: float, t: float, x: np.ndarray, f: np.ndarray, idx) -> list[str]:
    """Grid values at a few indices against the independent series formula."""
    ref = series_density(samples, r, t, x[idx])
    err = float(np.abs(f[idx] - ref).max())
    return [] if err <= SPOT_TOL else [f"spot check off by {err!r} from the series formula"]


def check_binned(x: np.ndarray, u: np.ndarray, r: float, u_spectral: np.ndarray) -> list[str]:
    """Discrete mass, u_0 = r u_{m+1}, non-negativity, and BE vs spectral within O(dt)."""
    m = x.size - 2
    if m < 2 or u.shape != x.shape or u_spectral.shape != (m,):
        return [f"shape mismatch: x{x.shape} u{u.shape} spectral{u_spectral.shape}"]
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(u_spectral))):
        return ["non-finite node values"]
    bad = []
    h = 1.0 / (m + 1)
    mass = h * float(u[1:-1].sum())
    if abs(mass - 1.0) > BINNED_MASS_TOL:
        bad.append(f"discrete mass {mass!r} is not 1")
    if abs(u[0] - r * u[-1]) > BINNED_RATIO_TOL * max(1.0, abs(u[0])):
        bad.append(f"u_0 - r u_(m+1) = {u[0] - r * u[-1]!r} with r = {r!r}")
    if u.min() < -NEG_TOL:
        bad.append(f"negative node value {u.min()!r}")
    gap = float(np.abs(u[1:-1] - u_spectral).max())
    bound = BE_SPECTRAL_DT_FACTOR * 2.0 * h * h * float(np.abs(u_spectral).max())
    if gap > bound:
        bad.append(f"backward Euler and spectral differ by {gap!r} > {bound!r}")
    return bad


def check_bench(rows: list[dict], methods, ns, reps: int) -> list[str]:
    """Every (method, n) row present once, finite, and linked beats gaussian at the largest n."""
    got = {(row["method"], int(row["n"])): row for row in rows}
    want = {(m, n) for m in methods for n in ns}
    if len(rows) != len(want) or set(got) != want:
        return [f"rows {sorted(got)} do not match {sorted(want)}"]
    bad = []
    for key, row in got.items():
        vals = [float(row[c]) for c in ("mean_ise", "mean_l2", "mean_linf")]
        if int(row["reps"]) != reps or not all(math.isfinite(v) and v > 0.0 for v in vals):
            bad.append(f"row {key} is incomplete or not finite: {row}")
    top = max(ns)
    if not bad and float(got["linked", top]["mean_ise"]) >= float(got["gaussian", top]["mean_ise"]):
        bad.append(f"linked does not beat gaussian at n={top}")
    return bad


def ise(x: np.ndarray, f: np.ndarray, pdf) -> float:
    """Integrated squared error against an analytic pdf, by trapezoid."""
    d = f - pdf(x)
    return float(np.trapezoid(d * d, x))
