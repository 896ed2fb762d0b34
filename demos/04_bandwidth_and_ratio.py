"""Walkthrough: choosing the smoothing time and estimating the ratio.

Four bandwidth routes: Silverman's reference rule from the sample spread,
least-squares cross-validation over a time grid, and two closed-form
choices that minimize the asymptotic MISE when the target's roughness or
derivative gap is known. The boundary ratio itself can be estimated from
boundary window counts when it is not known a priori.
"""

import numpy as np

from linkedkde import (
    EvaluationGrid,
    amise_value,
    estimate_r,
    lscv_bandwidth,
    oracle_amise_bandwidth,
    parabolic,
    sample_synthetic,
    silverman_bandwidth,
)

target = parabolic()
samples = sample_synthetic(target, 2000, seed=1)
print(f"target: {target.name}, true boundary ratio r = {target.info.r_true}")

print()
print("=== Silverman's rule ===")
sel = silverman_bandwidth(samples)
print(f"  t = {sel.t:.5f} (bandwidth sqrt(t) = {np.sqrt(sel.t):.5f})")

print()
print("=== least-squares cross-validation ===")
t_grid = np.geomspace(1e-4, 1.0, 30)
sel = lscv_bandwidth(samples, target.info.r_true, t_grid)
print(f"  t = {sel.t:.5f} at grid index {sel.argmin_index} of {sel.t_grid.size}")
print(f"  objective range: [{sel.objective.min():.5f}, {sel.objective.max():.5f}]")
# the record keeps the fit the curve was scored from; it reads the estimate at t
density = sel.fit.evaluate(sel.t, EvaluationGrid.uniform(5))
print(f"  estimate at x = 0, 1/4, ..., 1 from the record's fit: {np.round(density, 3)}")

print()
print("=== oracle rules from the analytic target ===")
for n in (100, 1000, 10000):
    sel = oracle_amise_bandwidth(n, target.info)
    print(
        f"  n={n:6d}: t* = {sel.t:.6f} ({sel.rule}), "
        f"AMISE(t*) = {amise_value(sel.t, n, target.info):.6f}"
    )
print("  (the non-matching rule scales as n^(-1/2); the matching rule as n^(-2/5))")

print()
print("=== estimating r from the boundary windows ===")
for n in (10**3, 10**4, 10**5):
    estimates = [estimate_r(sample_synthetic(target, n, seed)) for seed in range(5)]
    print(f"  n={n:6d}: estimates {np.round(estimates, 3)}  (true {target.info.r_true})")
