"""Walkthrough: replicated error sweeps and convergence-rate fitting.

Draw seeded replicates at several sample sizes, estimate with the linked
model and the two baselines, and fit the error decay against the sample
size. On a smooth periodic target with matching derivatives the linked
method realizes the n^(-4/5) mean integrated squared error rate; the
whole-line Gaussian baseline stalls on boundary bias. The last part reads
the exact estimator means, each estimator's own series started from the
target pdf instead of a sample, to show the boundary bias with no sampling
noise.
"""

import numpy as np

from linkedkde import (
    beta_mixture,
    cosine_bump,
    expected_cosine_density,
    expected_linked_density,
    rate_fit,
    rows_to_csv,
    run_mise_experiment,
)

target = cosine_bump(0.5)
ns = [100, 316, 1000, 3162]
print(f"target: {target.name}; {len(ns)} sample sizes, 10 replicates each\n")

methods = ("linked", "cosine", "gaussian")
# one call: each replicate is drawn once and scored by every method
all_rows = run_mise_experiment(target, methods, ns, reps=10, bandwidth_rule="oracle", seed=7)
for k, method in enumerate(methods):
    rows = all_rows[k * len(ns) : (k + 1) * len(ns)]
    slope = rate_fit(ns, [row.mean_ise for row in rows])
    print(f"  {method:9s} ISE slope {slope:.3f}   "
          + "  ".join(f"n={row.n}: {row.mean_ise:.2e}" for row in rows))

print()
print("CSV output (first lines):")
print("\n".join(rows_to_csv(all_rows).split("\n")[:4]))

print()
print("=== deterministic boundary bias, no sampling noise ===")
# E f(x, t) is the estimator's series from Gauss-Legendre transforms of the pdf
tilted = beta_mixture(2.0)  # straight-line density with ratio 1/2
t = 1e-3
truth0 = float(tilted.pdf(np.array(0.0)))
linked0 = expected_linked_density(tilted.pdf, 0.5, t, [0.0])[0]
cosine0 = expected_cosine_density(tilted.pdf, t, [0.0])[0]
print(f"  target value at the left boundary: {truth0:.6f}")
print(f"  mean linked estimate:  {linked0:.6f}  (bias {abs(linked0 - truth0):.2e})")
print(f"  mean cosine estimate:  {cosine0:.6f}  (bias {abs(cosine0 - truth0):.2e})")
print("  the reflecting-end model flattens the slope at the boundary; the")
print("  linked model reproduces the tilted line exactly")
