"""The four benchmark workloads: inputs, one op, and the op's output check.

Each op goes through ``linkedkde.cli.main(argv)`` or the public functions
the README documents, so refactors behind them cannot break the benchmark.
Inputs are drawn in set-up from the run seed; the program only ever sees
the generated sample files and arrays. See README.md for why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

import checks

# Fixed, seed-independent inputs whose ISE is reported as mean_ise: the ISE
# of one sample varies by a factor of five to ten between seeds, more than
# any regression bound could absorb, while a fixed panel makes a change of
# bandwidth or estimate show exactly.
PANEL_SEED = 977


def input_seed(seed: int, workload: str, i: int) -> int:
    """Sample seed for input i of a workload, derived from the run seed."""
    key = [int(seed), sum(map(ord, workload)), int(i)]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def parabolic_pdf(x):
    return (6.0 / 11.0) * (-2.0 * x * x + x + 2.0)


def beta3_pdf(x):
    """(b(1,2;x) + 2 b(3,1;x)) / 3."""
    return (2.0 * (1.0 - x) + 6.0 * x * x) / 3.0


def _cli(argv: list[str]) -> None:
    import linkedkde.cli

    code = linkedkde.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"linkedkde {argv[0]} exited with code {code}")


def _read_density(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


@dataclass
class Sample:
    values: np.ndarray
    path: str


@dataclass
class Outcome:
    failures: list[str]
    ise: float | None = None


class _SampleWorkload:
    """Shared input handling for the workloads that estimate from a sample file."""

    name = ""
    target = ""
    n = 0
    small_n = 200
    pool = 0
    panel: tuple[int, ...] = ()  # indices of the fixed panel inputs
    pdf = None

    def make_inputs(self, seed: int, workdir: str, indices, n: int, tag: str) -> list[Sample]:
        import linkedkde

        target = linkedkde.parse_target(self.target)
        out = []
        for i in indices:
            values = linkedkde.sample_synthetic(target, n, input_seed(seed, self.name, i)).values
            path = os.path.join(workdir, f"{tag}{i}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(f"{v:.17g}" for v in values) + "\n")
            out.append(Sample(values=np.loadtxt(path, ndmin=1), path=path))
        return out


class CliLscv(_SampleWorkload):
    name = "cli_lscv"
    why = "CLI series estimate with LSCV bandwidth on n=1e4 parabolic (r=2); series evaluation and transforms dominate"
    target = "parabolic"
    n = 10_000
    pool = 16
    panel = (0,)
    pdf = staticmethod(parabolic_pdf)

    def argv(self, inp: Sample, out: str) -> list[str]:
        return ["estimate", "--input", inp.path, "--r", "est", "--bandwidth", "lscv",
                "--method", "series", "--output", out]

    def op(self, inp: Sample, out: str):
        _cli(self.argv(inp, out))
        return out

    def check(self, inp: Sample, result) -> Outcome:
        x, f = _read_density(result)
        return Outcome(checks.check_density(x, f, checks.window_ratio(inp.values)), checks.ise(x, f, self.pdf))


class LibraryKernel(_SampleWorkload):
    name = "library_kernel"
    why = "README quick start: estimate_r, silverman_bandwidth, kernel-sum estimate_density on n=4e3 beta_mixture a=3 (r=1/3)"
    target = "beta_mixture:a=3"
    # At n = 5e3 Silverman's t straddles the point where eval_K1_dx needs a
    # second Gaussian image (t ~ 3.1e-3), so op cost is bimodal (0.77 s or
    # 1.3 s) by input; at n = 4e3 every seeded input takes the dearer path.
    n = 4_000
    pool = 32
    panel = (0, 1, 2, 3)
    pdf = staticmethod(beta3_pdf)
    spot_idx = np.array([0, 137, 500, 861, 1000])

    def op(self, inp: Sample, out: str):
        import linkedkde

        r = linkedkde.estimate_r(inp.values)
        t = linkedkde.silverman_bandwidth(inp.values).t
        density = linkedkde.estimate_density(inp.values, r, t)
        return r, t, density.grid.points, density.values

    def check(self, inp: Sample, result) -> Outcome:
        r, t, x, f = result
        r_ref = checks.window_ratio(inp.values)
        bad = checks.check_density(x, f, r_ref)
        if r != r_ref or abs(t - checks.silverman_t(inp.values)) > 1e-12 * t:
            bad.append(f"ratio {r!r} or time {t!r} differs from the documented rules")
        if not bad:
            bad += checks.check_spots(inp.values, r_ref, t, x, f, self.spot_idx)
        return Outcome(bad, checks.ise(x, f, self.pdf))


class Binned(_SampleWorkload):
    name = "binned"
    why = "binned CLI (m=1599) on a small n=200 parabolic sample, then the spectral propagator at the same t"
    target = "parabolic"
    n = 200
    bins = 1599
    small_bins = 199
    pool = 16
    # Input 60 is one of the 2.5% whose estimated ratio is exactly 1, which
    # takes the symmetric eigendecomposition and peaks 40 MB higher; with it
    # in the panel every run reaches that peak, and both routes are scored.
    panel = (0, 60)
    pdf = staticmethod(parabolic_pdf)

    def __init__(self, bins: int | None = None):
        if bins is not None:
            self.bins = bins

    def op(self, inp: Sample, out: str):
        import linkedkde

        _cli(["estimate", "--input", inp.path, "--r", "est", "--bandwidth", "silverman",
              "--method", "binned", "--bins", str(self.bins), "--output", out])
        try:
            r = linkedkde.estimate_r(inp.values)
        except linkedkde.RatioEstimationError:
            r = 1.0
        t = linkedkde.silverman_bandwidth(inp.values).t
        binned = linkedkde.bin_samples(inp.values, self.bins, r)
        return out, linkedkde.matrix_exponential_evolve(binned, t).interior

    def check(self, inp: Sample, result) -> Outcome:
        path, spectral = result
        x, u = _read_density(path)
        bad = checks.check_binned(x, u, checks.window_ratio(inp.values), spectral)
        return Outcome(bad, checks.ise(x, u, self.pdf))


class BenchSweep:
    name = "bench_sweep"
    why = "linkedkde bench on parabolic: default methods and ns 100..1e4, oracle bandwidth, reps=2; bypasses LSCV and the kernel sum"
    target = "parabolic"
    methods = ("linked", "cosine", "gaussian")
    ns = (100, 316, 1000, 3162, 10000)
    reps = 2
    n = small_n = 0  # inputs are sweep seeds, not sample files
    pool = 64
    panel = (0, 1)

    def __init__(self, ns=None, reps=None):
        self.ns = tuple(ns or self.ns)
        self.reps = reps or self.reps

    def make_inputs(self, seed: int, workdir: str, indices, n: int, tag: str) -> list[Sample]:
        return [Sample(values=np.array([input_seed(seed, self.name, i)]), path="") for i in indices]

    def op(self, inp: Sample, out: str):
        _cli(["bench", "--target", self.target, "--ns", ",".join(map(str, self.ns)),
              "--reps", str(self.reps), "--seed", str(int(inp.values[0])), "--output", out])
        return out

    def check(self, inp: Sample, result) -> Outcome:
        with open(result, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        bad = checks.check_bench(rows, self.methods, self.ns, self.reps)
        top = [float(r["mean_ise"]) for r in rows if r.get("method") == "linked" and int(r["n"]) == max(self.ns)]
        return Outcome(bad, top[0] if top and not bad else None)


WORKLOADS = {w.name: w for w in (CliLscv, LibraryKernel, BenchSweep, Binned)}


def warmup_variant(name: str):
    """The same op on a small input, run in set-up to finish lazy imports."""
    if name == "binned":
        return Binned(bins=Binned.small_bins)
    if name == "bench_sweep":
        return BenchSweep(ns=(100,), reps=1)
    return WORKLOADS[name]()
