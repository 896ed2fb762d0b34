"""Self-test of the benchmark's own machinery; run from the repository root.

    python3 perfbench/selftest.py

Feeds the output checks clean and corrupted outputs and requires each
corruption to be rejected by the check aimed at it; confirms that the same
seed gives byte-identical inputs; confirms that the tracer rebinds every
namespace, restores it, and reports a missing layer as absent; and that
BENCHMARK.json names exactly the metrics run.py prints. Exit status 1 on
any failure.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

import checks
import run  # pins BLAS threads and resolves the source tree
import tracer

FAILED: list[str] = []


def expect(label: str, failures: list[str], want: str | None) -> None:
    """want=None: the output must pass; otherwise some failure must mention want."""
    ok = not failures if want is None else any(want in f for f in failures)
    print(f"{'ok ' if ok else 'BAD'} {label}: {failures or 'passes'}")
    if not ok:
        FAILED.append(label)


def density_cases() -> None:
    rng = np.random.default_rng(3)
    sample = np.sqrt(rng.random(800))  # density 2x on [0, 1]
    r = checks.window_ratio(sample)
    t = 3e-3
    x = np.linspace(0.0, 1.0, 1001)
    f = checks.series_density(sample, r, t, x)
    spots = np.array([0, 137, 500, 861, 1000])
    expect("density clean", checks.check_density(x, f, r) + checks.check_spots(sample, r, t, x, f, spots), None)
    expect("density mass off", checks.check_density(x, f * 1.01, r), "mass")
    g = f.copy()
    g[0] *= 1.001
    expect("density ratio off", checks.check_density(x, g, r), "f(0) - r f(1)")
    g = f.copy()
    g[500] = -1e-3
    expect("density negative value", checks.check_density(x, g, r), "negative")
    g = f.copy()
    g[137] += 1e-6
    expect("density off the series formula", checks.check_spots(sample, r, t, x, g, spots), "spot check")


def binned_cases() -> None:
    m, r = 1599, 2.0  # the binned workload's size
    x = np.arange(m + 2) / (m + 1)
    interior = 1.0 + 0.5 * np.cos(np.pi * x[1:-1])
    interior /= interior.sum() / (m + 1)
    um1 = (interior[0] + interior[-1]) / (r + 1.0)
    u = np.concatenate(([r * um1], interior, [um1]))
    expect("binned clean", checks.check_binned(x, u, r, interior.copy()), None)
    expect("binned mass off", checks.check_binned(x, u * 1.01, r, interior * 1.01), "discrete mass")
    v = u.copy()
    v[0] *= 1.01
    expect("binned ratio off", checks.check_binned(x, v, r, interior), "u_0 - r u_(m+1)")
    v = u.copy()
    v[5] = -1e-3
    expect("binned negative value", checks.check_binned(x, v, r, interior), "negative")
    expect("binned propagators disagree", checks.check_binned(x, u, r, interior + 1e-3), "backward Euler")


def bench_cases() -> None:
    methods, ns = ("linked", "gaussian"), (100, 1000)
    rows = [{"method": m, "n": str(n), "reps": "2", "mean_ise": str(v), "mean_l2": str(v ** 0.5), "mean_linf": "0.1"}
            for m in methods for n, v in zip(ns, ((0.02, 0.002) if m == "linked" else (0.05, 0.01)))]
    expect("bench clean", checks.check_bench(rows, methods, ns, 2), None)
    expect("bench missing row", checks.check_bench(rows[:-1], methods, ns, 2), "do not match")
    bad = [dict(r) for r in rows]
    bad[0]["mean_l2"] = "nan"
    expect("bench non-finite value", checks.check_bench(bad, methods, ns, 2), "not finite")
    bad = [dict(r) for r in rows]
    bad[1]["mean_ise"] = "0.5"
    expect("bench linked loses", checks.check_bench(bad, methods, ns, 2), "does not beat")


def input_cases() -> None:
    run._import_package()
    import workloads

    wl = workloads.CliLscv()
    with tempfile.TemporaryDirectory(dir=run.OUT if os.path.isdir(run.OUT) else None) as tmp:
        digests = []
        for k, seed in enumerate((5, 5, 6)):
            d = os.path.join(tmp, str(k))
            os.makedirs(d)
            digests.append(run._digest(wl.make_inputs(seed, d, range(2), 500, "in")))
    same, differs = digests[0] == digests[1], digests[0] != digests[2]
    expect("inputs repeat for one seed and differ across seeds", [] if same and differs else ["digests"], None)


def tracer_cases() -> None:
    import linkedkde
    import linkedkde.cli

    orig = linkedkde.bandwidth.estimate_r
    t = tracer.Tracer()
    t.install("spans")
    bound_everywhere = linkedkde.cli.estimate_r is linkedkde.estimate_r is linkedkde.bandwidth.estimate_r
    rebound = bound_everywhere and linkedkde.cli.estimate_r is not orig
    linkedkde.estimate_r(np.linspace(0.0, 1.0, 100))
    t.uninstall()
    restored = linkedkde.cli.estimate_r is orig and linkedkde.estimate_r is orig
    counted = t.totals["bandwidth.estimate_r"].calls == 1
    expect("tracer rebinds every namespace and restores it",
           [] if rebound and restored and counted else [f"rebound={rebound} restored={restored} counted={counted}"],
           None)
    ghost = tracer.Layer("bandwidth", "no_such_function")
    t = tracer.Tracer(layers=tracer.LAYERS + (ghost,))
    t.install("spans")
    t.uninstall()
    expect("a missing layer is reported absent", [] if t.absent == [ghost.name] else [str(t.absent)], None)


def spec_cases() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    same = e2e == run.END_TO_END and layers == tracer.metric_units()
    import workloads

    names = {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    expect("BENCHMARK.json matches the printed metrics", [] if same and names else ["metric names differ"], None)


if __name__ == "__main__":
    density_cases()
    binned_cases()
    bench_cases()
    input_cases()
    tracer_cases()
    spec_cases()
    print(f"\n{len(FAILED)} self-test case(s) failed" if FAILED else "\nall self-test cases passed")
    sys.exit(1 if FAILED else 0)
