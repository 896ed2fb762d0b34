"""Walkthrough: the series solution behind the estimate, checked against the kernel sum.

The density estimate is the average of kernel columns over the sample, and
equally the empirical measure expanded in the generalized eigenfunctions
(r + (1-r)x) cos(k_n x) and sin(k_n x), each mode left to decay. The two
forms agree to solver tolerance. ``estimate_density`` always takes the
series, whose cost is the sample transforms plus one inverse FFT on a
uniform grid, instead of the O(n * grid) kernel sum; here the kernel
columns are summed by hand as an independent check.
"""

import time

import numpy as np

from linkedkde import (
    EvaluationGrid,
    empirical_transforms,
    estimate_density,
    eval_linked_kernel,
    eval_series_solution,
    truncation_bound,
)

rng = np.random.default_rng(3)
samples = rng.beta(2.0, 1.2, size=5000)
r, t = 2.0, 0.002
grid = EvaluationGrid.uniform(1001)

print("=== mode count shrinks rapidly with the smoothing time ===")
for tt in (1e-4, 1e-3, 1e-2, 0.1, 1.0):
    print(f"  t={tt:7.4f}:  modes needed for 1e-14 tails: {truncation_bound(tt)}")

print()
print("=== kernel sum and series expansion agree ===")
start = time.time()
direct = np.zeros_like(grid.points)
for block in np.array_split(samples, 5):
    direct += eval_linked_kernel(r, grid.points[None, :], block[:, None], t).sum(axis=0)
direct /= samples.size
t_direct = time.time() - start

start = time.time()
series = estimate_density(samples, r, t, grid)
t_series = time.time() - start

gap = np.abs(direct - series.values).max()
print(f"  kernel sum   {t_direct * 1e3:7.1f} ms")
print(f"  series route {t_series * 1e3:7.1f} ms  (estimate_density)")
print(f"  sup difference {gap:.3e}")

print()
print("=== the series is assembled from a handful of sample transforms ===")
tr = empirical_transforms(samples, truncation_bound(t))
print(f"  modes carried: {tr.n_modes}")
print(f"  first cosine transforms: {np.round(tr.c0[:4], 4)}")
print(f"  first sine transforms:   {np.round(tr.s0[:4], 4)}")

value = eval_series_solution(tr, r, t, 0.25)
print(f"  point evaluation at x=0.25: {value:.10f} (kernel sum {direct[250]:.10f})")

print()
print("=== the transforms of a point mass at y give the kernel column ===")
y = 0.3
column = eval_series_solution(empirical_transforms([y], tr.n_modes), r, t, 0.25)
print(f"  series {column:.12f}   K(r; 0.25, {y}, t) = {eval_linked_kernel(r, 0.25, y, t):.12f}")
