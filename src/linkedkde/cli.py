"""Command-line interface: estimate, synth, bench, and eigs subcommands.

All density output uses the CSV header ``x,density`` with 17 significant
digits: every number is written as "%.17g" writes it, by the rule stated in
:func:`_csv_rows`. A sample file (``estimate --input``) is read value for
value as ``np.loadtxt`` reads it, by the rule stated in :func:`_read_samples`,
so ``synth`` output reads back exactly. Exit codes: 0 success, 2 invalid
input, 3 numerical failure (including running out of memory and a non-finite
density, which is never written).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import warnings

import numpy as np

from .bandwidth import RatioEstimationError, _check_rule, _choose, _rule_names
from .binned_solver import backward_euler_evolve, bin_samples, spectral_data
from .experiments import rows_to_csv, run_mise_experiment
from .linked_kernel import estimate_density
from .targets import parse_target, sample_synthetic
from .types import EvaluationGrid, SampleSet, TruncationError

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3

# Rows per block of CSV output (see _csv_rows).
_CSV_BLOCK = 2**16


# Bytes of a sample file read at once (see _read_samples).
_READ_BLOCK = 2**16
# A file of fewer lines is read by float() alone (see _read_samples).
_FLOAT_LINES = 2**9
# The bytes of a line that float() reads as np.loadtxt does (see _read_samples).
_NUMBER_BYTES = b"0123456789.eE+-"


def _read_samples(path: str) -> SampleSet:
    """The samples in the file at ``path``, one number a line, as ``np.loadtxt(path, dtype=float, ndmin=1)`` reads them.

    Every value is the one np.loadtxt returns, bit for bit; only the time
    differs. Three readers share the work:

    - **numpy** converts every line "0." + k digits, 1 <= k <= 22: the
      shape ``synth`` writes for a sample in [1e-4, 1). The line's last 24
      bytes, as three 64-bit words, are checked against that shape and give
      its digits D by SWAR (SIMD within a register). q = fl(D / 10^k) is
      corrected by c = (D - q 10^k) / 10^k, the residual formed from
      Dekker's two-product of q and the exact double 10^k with Veltkamp's
      split (as :func:`_csv_rows` forms D), so that q + c rounds to the
      correctly rounded value (Clinger 1990).
    - **float()**, the correctly rounded conversion np.loadtxt makes, reads
      the rest, one line at a time, as Lemire (2021) falls back for the rare
      ambiguous case: a line whose q + c lies so near a rounding boundary
      that moving c by 2^-29 of itself moves its rounding (within about
      2^-30 ulp of the midpoint between two doubles, or of the boundary a
      quarter ulp below a power of two, where the binade changes); a line
      whose D reaches 2^63; and any other line made only of the bytes
      ``0-9 . e E + -`` (the exponent lines "%.17g" writes below 1e-4, "0",
      "1"). It also reads every line of a file of fewer than
      ``_FLOAT_LINES`` lines, where numpy's fixed cost would exceed it.
    - **np.loadtxt** reads the whole file, so that its values, errors and
      messages are the ones returned, when a line holds any other byte
      (whitespace, "\\r", "#", a letter), is blank, is refused by float() or
      is longer than a block; when the file has a compressed-file suffix;
      and when it cannot be opened or read twice.

    The file is read in blocks of ``_READ_BLOCK`` bytes cut at whole lines,
    after a pass that counts its lines, so what is held at once is the
    result and one block with the working arrays of its lines.
    """
    raw = _decimal_file(path)
    if raw is None:
        try:
            with warnings.catch_warnings():
                # SampleSet rejects an empty sample below, so numpy's warning would only repeat it.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                raw = np.loadtxt(path, dtype=float, ndmin=1)
        except OSError as exc:
            raise ValueError(f"cannot read samples from {path}: {exc}") from exc
    return SampleSet(raw)


def _decimal_file(path: str) -> np.ndarray | None:
    """The numbers of the file at ``path``, or None where np.loadtxt must read it (see _read_samples)."""
    if path.endswith((".gz", ".bz2", ".xz", ".lzma")):  # np.loadtxt decompresses these
        return None
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        if not fh.seekable():
            return None
        # a block starts at byte 24, after newlines, so every line has 24 bytes before its end;
        # after it there is room for a last newline and the aligned word that follows
        words = np.empty(_READ_BLOCK // 8 + 5, np.uint64)
        raw = words.view(np.uint8)
        newline = ord("\n")
        raw[:24] = newline
        text = raw[24 : 24 + _READ_BLOCK]
        lines = size = 0
        while got := fh.readinto(text):
            lines += np.count_nonzero(text[:got] == newline)
            size += got
        if size < _READ_BLOCK and lines < _FLOAT_LINES:
            return _float_lines(text[:size].tobytes())
        fh.seek(0)
        values = np.empty(lines + 1)  # the last line may have no newline
        done = carry = 0
        while carry < _READ_BLOCK:  # else a line is longer than a block
            got = fh.readinto(text[carry:])
            stop = 24 + carry + got
            if not got:
                if not carry:
                    return values[:done]
                raw[stop] = newline  # the last line, cut off from its block, has no newline
                stop += 1
            ends = np.flatnonzero(text[: stop - 24] == newline) + 24
            if not ends.size or done + ends.size > values.size:
                return None
            if not _decimal_lines(words, ends, values[done : done + ends.size]):
                return None
            done += ends.size
            carry = stop - ends[-1] - 1
            text[:carry] = raw[stop - carry : stop]
    return None


def _float_lines(text: bytes) -> np.ndarray | None:
    """float() of each line of ``text``, whose last newline may be missing, or None where np.loadtxt must read it."""
    if text.translate(None, _NUMBER_BYTES + b"\n"):
        return None
    try:
        return np.array([float(line) for line in text.splitlines()], dtype=float)
    except ValueError:  # a blank line, or one float() refuses
        return None


@functools.cache
def _line_tables() -> tuple[np.ndarray, ...]:
    """Tables of a line of L bytes, 3 <= L <= 24, at column L; built on first use (see _decimal_lines).

    Row t of ``keep`` keeps the bytes of word t of the line's last 24 that
    belong to the line, and row t of ``shape`` has there the bytes of "0."
    and L - 2 "0"s. Row t of ``over`` has 0x76 in the bytes of the digits
    and 0x7F in the others: a byte plus it reaches 0x80 where it is over 9
    and over 0, in turn. The rows of ``pow10`` are 10^(L - 2) and its
    Veltkamp halves.
    """
    length, at = np.arange(25)[:, None], np.arange(24)
    line = at >= 24 - length
    keep = line * np.uint8(255)
    shape = line * np.where(at == 25 - length, np.uint8(ord(".")), np.uint8(ord("0")))
    over = np.where(at >= 26 - length, np.uint8(0x76), np.uint8(0x7F))
    tables = [table.view(np.uint64).T.copy() for table in (keep, shape, over)]
    tables.append(np.stack(_digit_tables()[:3])[:, np.clip(length[:, 0] - 2, 0, 22)])
    for table in tables:
        table.setflags(write=False)
    return tuple(tables)


def _decimal_lines(words: np.ndarray, ends: np.ndarray, out: np.ndarray) -> bool:
    """Write the numbers of the lines that end at bytes ``ends`` of ``words`` to ``out`` (see _read_samples).

    The first line starts at byte 24, and each other one after the end of
    the line before it. False where np.loadtxt must read the file.
    """
    starts = np.concatenate(([24], ends[:-1] + 1))
    length = ends - starts
    size = np.clip(length, 3, 24)
    fast = size == length
    # the words at ends - 24, - 16 and - 8, each from the two aligned words around it
    shift = ((ends & 7) << 3).view(np.uint64)
    w = words.take((ends >> 3) + np.arange(-3, 1)[:, None])
    w = (w[:3] >> shift) | (w[1:] << 1 << (63 - shift))
    # a line "0." + digits, and no other, leaves each digit's value in its byte and 0 in every other byte
    keep, shape, over, pow10 = _line_tables()
    w &= keep.take(size, axis=1)
    w ^= shape.take(size, axis=1)
    fast &= ~(((w + over.take(size, axis=1)) | w) & 0x8080808080808080).any(axis=0)
    # each word's 8 digits as one number, first digit first (Lemire 2021); below 2^32 whatever its bytes
    w *= 2561
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 6553601
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 42949672960001
    w >>= 32
    # D stays below 2^64; a first word over 922 puts it past 2^63 whatever the rest
    d = np.minimum(w[0], 923) * 10**16 + w[1] * 10**8 + w[2]
    hard = d >= 2**63
    # D = dh + dl exactly, dl an integer of at most 2^9
    dh = d.astype(float)
    dl = (d - dh.astype(np.uint64)).view(np.int64).astype(float)
    p, ph, pl = pow10.take(size, axis=1)
    q = dh / p
    # Dekker's two-product q p = big + err, so D - q p = ((dh - big) - err) + dl
    qh, ql = _halves(q)
    big = q * p
    err = ((qh * ph - big) + qh * pl + ql * ph) + ql * pl
    c = (((dh - big) - err) + dl) / p
    out[:] = q + c
    # c is the exact correction to about 2^-52 of itself, so q + c rounds as D / 10^k does
    # unless moving c by 2^-29 of itself moves the rounding: a boundary is that near
    hard |= (q + c * (1 + 2**-29)) != (q + c * (1 - 2**-29))
    slow = np.flatnonzero(~fast | hard)
    raw = words.view(np.uint8)
    lines = [raw[s : e + 1].tobytes() for s, e in zip(starts[slow].tolist(), ends[slow].tolist())]
    values = _float_lines(b"".join(lines))
    if values is None:
        return False
    out[slow] = values
    return True


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


# Cells of a block formatted at once (see _csv_rows).
_CSV_CHUNK = 2**14
# Bytes of a cell of CSV text before its NULs are deleted (see _csv_rows).
_CELL = 40


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a = hi + lo`` exactly, each part of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _digit_tables():
    """The tables of the fast range (see _csv_rows), built on first use.

    ``pow10``, with its Veltkamp halves, holds the exact doubles 10^0 .. 10^22.
    The rest are 64-bit words of cell bytes, digit k at byte 2k + 7 of a
    cell: ``groups[strip * 10**4 + g]`` has the four digits of g at its odd
    bytes, less their trailing zeros where ``strip`` is 1;
    ``lead[(E + 4) * 10 + d0]`` is the first word of a cell, with the prefix
    of exponent E and the first digit d0; ``whole[E]`` keeps the bytes of a
    cell up to digit E.
    """
    pow10 = np.array([float(10**k) for k in range(23)])
    quad = np.indices((10,) * 4, np.uint8).reshape(4, 10**4)  # quad[j, g] is digit j of g
    trailing = quad == 0
    for j in (2, 1, 0):
        trailing[j] &= trailing[j + 1]
    groups = np.zeros((2, 10**4, 8), np.uint8)
    groups[:, :, 1::2] = quad.T + ord("0")
    groups[1, :, 1::2][trailing.T] = 0
    lead = np.zeros((20, 10, 8), np.uint8)
    lead[..., 7] = np.arange(10) + ord("0")
    for e in range(-4, 0):
        lead[e + 4, :, 6 + e : 7] = np.frombuffer(b"0.000"[: 1 - e], np.uint8)
    whole = (np.arange(_CELL) <= 2 * np.arange(16)[:, None] + 7) * np.uint8(255)
    words = (groups.view(np.uint64).ravel(), lead.view(np.uint64).ravel(), whole.view(np.uint64))
    tables = (pow10, *_halves(pow10), *words)
    for table in tables:
        table.setflags(write=False)  # every caller shares them
    return tables


def _decimal_digits(v: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """round-half-even(v 10^(16 - exp10)) as int64, exactly (see _csv_rows)."""
    pow10, pow10_hi, pow10_lo = _digit_tables()[:3]
    s = 16 - exp10
    p = v * pow10[s]
    vh, vl = _halves(v)
    sh, sl = pow10_hi[s], pow10_lo[s]
    err = ((vh * sh - p) + vh * sl + vl * sh) + vl * sl
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _rows_text(rows: np.ndarray) -> str:
    """The CSV lines of a 2-D float array, one "%.17g" cell each (see _csv_rows)."""
    groups, lead, whole = _digit_tables()[3:]
    values = rows.ravel()
    n = values.size
    text = bytearray(n * _CELL + 1)
    cells = np.frombuffer(text, np.uint8, n * _CELL).reshape(n, _CELL)
    words = cells.view(np.uint64)
    fast = (values >= 1e-4) & (values < 1e16)
    v = np.where(fast, values, 1.0)
    exp10 = np.floor(np.log10(v)).astype(np.intp)
    d = _decimal_digits(v, exp10)
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if off.size:  # log10 was one off, or D rounded up to 10^17
        exp10[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _decimal_digits(v[off], exp10[off])
    # D // 10^(4k) for k = 0 .. 4, then digits 13-16, 9-12, 5-8 and 1-4 of D
    shifted = np.empty((5, n), np.int64)
    for k in range(5):
        np.floor_divide(d, 10 ** (4 * k), out=shifted[k])
    quads = shifted[:-1] - shifted[1:] * 10**4
    # where v is not an integer, a group drops its trailing zeros if every later group is zero
    point = v != np.floor(v)
    strip = np.empty((4, n), bool)
    strip[0] = point
    for k in range(3):
        np.logical_and(strip[k], quads[k] == 0, out=strip[k + 1])
    words[:, 0] = lead[(exp10 + 4) * 10 + shifted[4]]
    words[:, :0:-1] = groups[quads + 10**4 * strip].T
    fraction = np.flatnonzero(point & (exp10 >= 0))
    cells[fraction, 2 * exp10[fraction] + 8] = ord(".")
    integer = np.flatnonzero(~point)
    if integer.size:
        words[integer] &= whole[exp10[integer]]
    rest = np.flatnonzero(~fast)
    if rest.size:
        chars = np.frombuffer((("%-24.17g" * rest.size) % tuple(values[rest].tolist())).encode("ascii"), np.uint8)
        cells[rest] = 0
        cells[rest, 1:25] = np.where(chars == ord(" "), 0, chars).reshape(rest.size, 24)
    grid = cells.reshape(rows.shape + (_CELL,))
    grid[:, 1:, 0] = ord(",")
    grid[1:, 0, 0] = ord("\n")
    text[-1] = ord("\n")
    return bytes(text).translate(None, b"\0").decode("ascii")


def _csv_rows(*columns: np.ndarray):
    """CSV text of the columns, one "%.17g" cell each, in blocks of ``_CSV_BLOCK`` rows.

    The text of a block, not of the whole file, is what is held at once, and
    it is built from numpy arrays byte for byte as "%.17g" writes it (Python's
    correctly rounded conversion, ties to even: Steele & White 1990, Gay 1990).

    - **The fast range** is the finite v with 1e-4 <= v < 1e16, which "%.17g"
      writes in fixed notation from its 17 significant digits
      D = round-half-even(v 10^(16 - E)), E the decimal exponent after
      rounding: E = floor(log10 v), moved by one wherever D falls outside
      [10^16, 10^17).
    - **D is exact.** 10^(16 - E) is an exact double (16 - E <= 22), and
      Dekker's two-product (1971) of v and it, with Veltkamp's split, gives
      v 10^(16 - E) = p + e with no error. p >= 10^16 > 2^53 is an even
      integer, so round-half-even(p + e) = p + rint(e).
    - **The point.** D has a fraction digit other than zero exactly where v
      is not an integer: in the fast range a v >= 1 that is not an integer
      lies at least an ulp, more than v 2^-53, from the nearest integer, which
      is more than half a unit of D's last digit; a v < 1 has only fraction
      digits. An integer is written with its E + 1 digits and no point.
    - **The text.** A cell is 40 bytes: the separator that ends the cell
      before it, the prefix "0." + "0" * (-1 - E) of E < 0, then digit k of
      D at byte 2k + 7, the byte before each digit k >= 1 being the place of
      the point when k = E + 1. Digits 1-16 come in groups of four from a
      table of the 10^4 groups, whole or less their trailing zeros, so the
      fraction's trailing zeros and every unused byte are NUL, and one
      ``bytes.translate`` deletes them.
    - **Every other value** (zeros, negatives, subnormals, tiny, huge or
      non-finite values) is written by one "%-24.17g" over just those values:
      24 bytes is the longest "%.17g" of a double, and its padding spaces
      become NUL.

    A block is built ``_CSV_CHUNK`` cells at a time, so its working arrays
    stay small.
    """
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([c[start : start + _CSV_BLOCK] for c in columns])
        step = max(1, _CSV_CHUNK // block.shape[1])
        yield "".join([_rows_text(block[i : i + step]) for i in range(0, len(block), step)])


def _bandwidth_help(*refused: str) -> str:
    """The --bandwidth values, RULE or fixed:VALUE, of the rules of :func:`bandwidth._rule_names` less ``refused``."""
    return "|".join(name + ":VALUE" if name == "fixed" else name for name in _rule_names() if name not in refused)


def _parse_bandwidth(text: str) -> tuple[str, float | None]:
    """A --bandwidth value, RULE or fixed:VALUE, as its rule and fixed t, checked by :func:`bandwidth._check_rule`."""
    rule, colon, value = text.partition(":")
    fixed_t = float(value) if colon else None
    _check_rule(rule, fixed_t)
    return rule, fixed_t


def _cmd_estimate(args) -> None:
    rule, fixed_t = _parse_bandwidth(args.bandwidth)
    if rule == "oracle":
        raise ValueError(f"estimate has no target for the oracle bandwidth (use {_bandwidth_help('oracle')})")
    samples = _read_samples(args.input)
    r = args.r if args.r == "est" else float(args.r)
    selection = _choose(samples, r, rule, fixed_t)
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
    rule, fixed_t = _parse_bandwidth(args.bandwidth)
    rows = run_mise_experiment(
        target,
        [method.strip() for method in args.methods.split(",")],
        [int(v) for v in args.ns.split(",")],
        reps=args.reps,
        bandwidth_rule=rule,
        seed=args.seed,
        fixed_t=fixed_t,
    )
    _write_text(args.output, [rows_to_csv(rows)])


def _cmd_eigs(args) -> None:
    # at very large r the eigenvectors overflow in the residual check; that
    # is detected below, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        sd = spectral_data(args.m, args.r)
        res = sd.residuals()
    bad = np.count_nonzero(~np.isfinite(res))
    if bad:
        raise FloatingPointError(
            f"{bad} of {res.size} eigenpair residuals are not finite (r={args.r:.6g}); no output written"
        )
    index = np.arange(1.0, sd.m + 1)
    rows = _csv_rows(index, sd.angles, sd.eigenvalues, res)
    _write_text(args.output, itertools.chain(["index,angle,eigenvalue,residual_inf\n"], rows))


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
    est.add_argument("--bandwidth", default="silverman", help=_bandwidth_help("oracle"))
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
    bench.add_argument("--bandwidth", default="oracle", help=_bandwidth_help())
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
