"""Command-line interface: estimate, synth, bench, and eigs subcommands.

All density output uses the CSV header ``x,density`` with 17 significant
digits. Exit codes: 0 success, 2 invalid input, 3 numerical failure
(including running out of memory).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bandwidth import DEFAULT_LSCV_GRID, RatioEstimationError, estimate_r, lscv_bandwidth, silverman_bandwidth
from .binned_solver import backward_euler_evolve, bin_samples, build_four_corners, spectral_data
from .experiments import linked_series_estimate, rows_to_csv, run_mise_experiment
from .targets import parse_target, sample_synthetic
from .types import EvaluationGrid, SampleSet, TruncationError

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3


def _read_samples(path: str) -> SampleSet:
    try:
        raw = np.loadtxt(path, dtype=float, ndmin=1)
    except OSError as exc:
        raise ValueError(f"cannot read samples from {path}: {exc}") from exc
    return SampleSet(raw)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _density_csv(x: np.ndarray, values: np.ndarray) -> str:
    lines = ["x,density"]
    lines += [f"{xi:.17g},{vi:.17g}" for xi, vi in zip(x, values)]
    return "\n".join(lines) + "\n"


def _resolve_r(spec: str, samples: SampleSet) -> float:
    if spec == "est":
        try:
            return estimate_r(samples)
        except RatioEstimationError as exc:
            print(
                f"warning: boundary-ratio estimate failed ({exc}); falling back to r=1",
                file=sys.stderr,
            )
            return 1.0
    return float(spec)


def _resolve_bandwidth(spec: str, samples: SampleSet, r: float) -> float:
    if spec == "silverman":
        return silverman_bandwidth(samples).t
    if spec == "lscv":
        return lscv_bandwidth(samples, r, DEFAULT_LSCV_GRID).t
    if spec.startswith("fixed:"):
        return float(spec.split(":", 1)[1])
    raise ValueError(f"unknown bandwidth rule {spec!r} (use silverman|lscv|fixed:VALUE)")


def _cmd_estimate(args) -> None:
    samples = _read_samples(args.input)
    r = _resolve_r(args.r, samples)
    t = _resolve_bandwidth(args.bandwidth, samples, r)
    if args.method == "series":
        grid = EvaluationGrid.uniform(args.grid)
        est = linked_series_estimate(samples, r, t, grid)
        _write_text(args.output, _density_csv(grid.points, est.values))
    elif args.method == "binned":
        binned = bin_samples(samples, args.bins, r)
        evolved = backward_euler_evolve(binned, t)
        x, u = evolved.with_boundary()
        _write_text(args.output, _density_csv(x, u))
    else:
        raise ValueError(f"unknown method {args.method!r}")


def _cmd_synth(args) -> None:
    target = parse_target(args.target)
    samples = sample_synthetic(target, args.n, args.seed)
    text = "\n".join(f"{v:.17g}" for v in samples.values) + "\n"
    _write_text(args.output, text)


def _cmd_bench(args) -> None:
    target = parse_target(args.target)
    ns = [int(v) for v in args.ns.split(",")]
    rows = []
    for method in args.methods.split(","):
        rows.extend(
            run_mise_experiment(
                target,
                method.strip(),
                ns,
                reps=args.reps,
                bandwidth_rule=args.bandwidth,
                seed=args.seed,
                fixed_t=args.fixed_t,
            )
        )
    _write_text(args.output, rows_to_csv(rows))


def _cmd_eigs(args) -> None:
    sd = spectral_data(args.m, args.r)
    res = sd.residuals(build_four_corners(args.m, args.r))
    lines = ["index,angle,eigenvalue,residual_inf"]
    for i in range(sd.m):
        lines.append(f"{i + 1},{sd.angles[i]:.17g},{sd.eigenvalues[i]:.17g},{res[i]:.17g}")
    _write_text(args.output, "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkedkde",
        description="Kernel density estimation on [0,1] with linked boundary conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a density from a sample CSV")
    est.add_argument("--input", required=True, help="CSV with one sample per line")
    est.add_argument("--r", default="est", help="boundary ratio, or 'est' to estimate it")
    est.add_argument("--bandwidth", default="silverman", help="silverman|lscv|fixed:VALUE")
    est.add_argument("--method", default="series", choices=("series", "binned"))
    est.add_argument("--bins", type=int, default=399, help="interior node count for --method binned")
    est.add_argument("--grid", type=int, default=1001, help="evaluation grid size for --method series")
    est.add_argument("--output", default="-")
    est.set_defaults(func=_cmd_estimate)

    synth = sub.add_parser("synth", help="draw samples from a synthetic target")
    synth.add_argument("--target", required=True, help="beta_mixture:a=A|cosine_bump:amp=B|parabolic|trimodal")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--output", default="-")
    synth.set_defaults(func=_cmd_synth)

    bench = sub.add_parser("bench", help="replicated error sweep over sample sizes")
    bench.add_argument("--target", required=True)
    bench.add_argument("--methods", default="linked,cosine,gaussian")
    bench.add_argument("--ns", default="100,316,1000,3162,10000")
    bench.add_argument("--reps", type=int, default=20)
    bench.add_argument("--bandwidth", default="oracle", help="oracle|silverman|lscv|fixed")
    bench.add_argument("--fixed-t", type=float, default=None, dest="fixed_t")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--output", default="-")
    bench.set_defaults(func=_cmd_bench)

    eigs = sub.add_parser("eigs", help="spectral data of the four-corners matrix")
    eigs.add_argument("--m", type=int, required=True)
    eigs.add_argument("--r", type=float, required=True)
    eigs.add_argument("--output", default="-")
    eigs.set_defaults(func=_cmd_eigs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (TruncationError, RatioEstimationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
