"""Command-line interface: estimate, synth, bench, and eigs subcommands.

All density output uses the CSV header ``x,density`` with 17 significant
digits. Exit codes: 0 success, 2 invalid input, 3 numerical failure
(including running out of memory and a non-finite density, which is never
written).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import warnings

import numpy as np

from .bandwidth import RatioEstimationError, _choose, _rule_names
from .binned_solver import backward_euler_evolve, bin_samples, build_four_corners, spectral_data
from .experiments import rows_to_csv, run_mise_experiment
from .linked_kernel import estimate_density
from .targets import parse_target, sample_synthetic
from .types import EvaluationGrid, SampleSet, TruncationError

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3

# Rows per block of CSV output (see _csv_rows).
_CSV_BLOCK = 2**16


def _read_samples(path: str) -> SampleSet:
    try:
        with warnings.catch_warnings():
            # SampleSet rejects an empty sample below, so numpy's warning would only repeat it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            raw = np.loadtxt(path, dtype=float, ndmin=1)
    except OSError as exc:
        raise ValueError(f"cannot read samples from {path}: {exc}") from exc
    return SampleSet(raw)


def _write_text(path: str, chunks) -> None:
    """Write the strings of ``chunks`` in turn to the file at ``path``, or to stdout for "-"."""
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write output to {path}: {exc}") from exc


def _csv_rows(*columns: np.ndarray):
    """CSV text of the columns, one "%.17g" cell each, in blocks of ``_CSV_BLOCK`` rows.

    Each block is one %-format over Python floats ("%.17g" renders a float
    exactly as the format spec ".17g" does), so the text of a block, not of
    the whole file, is what is held at once.
    """
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([c[start : start + _CSV_BLOCK] for c in columns])
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _cmd_estimate(args) -> None:
    samples = _read_samples(args.input)
    r = args.r if args.r == "est" else float(args.r)
    rule, colon, value = args.bandwidth.partition(":")
    if (rule, colon) not in (("silverman", ""), ("lscv", ""), ("fixed", ":")):
        raise ValueError(f"unknown bandwidth rule {args.bandwidth!r} (use silverman|lscv|fixed:VALUE)")
    selection = _choose(samples, r, rule, float(value) if colon else None)
    if selection.r_fallback is not None:
        print(f"warning: boundary-ratio estimate failed ({selection.r_fallback}); falling back to r=1", file=sys.stderr)
    r, t, fit = selection.r, selection.t, selection.fit
    # Overflow is detected below from the result itself, so numpy's
    # warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.method == "series":
            grid = EvaluationGrid.uniform(args.grid)
            x = grid.points
            u = estimate_density(samples, r, t, grid).values if fit is None else fit.evaluate(t, grid)
        elif args.method == "binned":
            x, u = backward_euler_evolve(bin_samples(samples, args.bins, r), t).with_boundary()
        else:
            raise ValueError(f"unknown method {args.method!r}")
    bad = np.count_nonzero(~np.isfinite(u))
    if bad:
        raise FloatingPointError(
            f"density is not finite at {bad} of {u.size} points (r={r:.6g}, t={t:.6g}); no output written"
        )
    _write_text(args.output, itertools.chain(["x,density\n"], _csv_rows(x, u)))


def _cmd_synth(args) -> None:
    target = parse_target(args.target)
    samples = sample_synthetic(target, args.n, args.seed)
    _write_text(args.output, _csv_rows(samples.values))


def _cmd_bench(args) -> None:
    target = parse_target(args.target)
    ns = [int(v) for v in args.ns.split(",")]
    rows = run_mise_experiment(
        target,
        [method.strip() for method in args.methods.split(",")],
        ns,
        reps=args.reps,
        bandwidth_rule=args.bandwidth,
        seed=args.seed,
        fixed_t=args.fixed_t,
    )
    _write_text(args.output, [rows_to_csv(rows)])


def _cmd_eigs(args) -> None:
    # at very large r the eigenvectors overflow in the residual check; that
    # is detected below, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        sd = spectral_data(args.m, args.r)
        res = sd.residuals(build_four_corners(args.m, args.r))
    bad = np.count_nonzero(~np.isfinite(res))
    if bad:
        raise FloatingPointError(
            f"{bad} of {res.size} eigenpair residuals are not finite (r={args.r:.6g}); no output written"
        )
    lines = ["index,angle,eigenvalue,residual_inf"]
    for i in range(sd.m):
        lines.append(f"{i + 1},{sd.angles[i]:.17g},{sd.eigenvalues[i]:.17g},{res[i]:.17g}")
    _write_text(args.output, ["\n".join(lines) + "\n"])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parsing leaves it unchanged."""
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
    bench.add_argument("--bandwidth", default="oracle", help="|".join(_rule_names()) + " (fixed reads --fixed-t)")
    bench.add_argument("--fixed-t", type=float, default=None, dest="fixed_t", help="t for --bandwidth fixed only")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (TruncationError, RatioEstimationError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
