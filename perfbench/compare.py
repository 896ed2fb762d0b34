"""Compare two sets of benchmark result files, workload by workload.

    python3 perfbench/compare.py perfbench/out/A perfbench/out/B
    python3 perfbench/compare.py perfbench/out/A          # one set: spreads only

Each argument is a directory of result files written by run.py (or a
single file). For every workload and end-to-end metric it prints each
side's median and quartiles, the spread (q3 - q1) / median, the change of
B's median against A's, and how many seed-matched pairs B wins. A metric
is flagged when a spread (other than setup_s) exceeds its bound in
BENCHMARK.json, or when B's median is worse than A's by more than the
bound. The exit status is 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[str, dict[int, dict]]:
    """Untraced results by workload, then by seed."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out: dict[str, dict[int, dict]] = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            res = json.load(fh)
        rec = res.get("record", {})
        if rec.get("trace") == 0:
            out.setdefault(rec["workload"], {})[rec["seed"]] = res
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile spread as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative when b is better)."""
    if a == 0:
        return 0.0 if a == b else float("inf")
    return (a - b) / a if better == "higher" else (b - a) / a


def compare(a_set, b_set, spec) -> tuple[list[str], list[str]]:
    lines, flags = [], []
    for workload in sorted(set(a_set) | set(b_set or {})):
        a_runs = a_set.get(workload, {})
        b_runs = (b_set or {}).get(workload, {})
        lines.append(f"\n{workload}: A {len(a_runs)} runs" + (f", B {len(b_runs)} runs" if b_set else ""))
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            row = [f"  {name:<17}"]
            sides = []
            for label, runs in (("A", a_runs), ("B", b_runs)):
                vals = [r["metrics"][name]["value"] for r in runs.values() if name in r["metrics"]]
                if not vals:
                    continue
                med, q1, q3, spread = summary(vals)
                sides.append((label, runs, med))
                row.append(f"{label} {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
                if name != "setup_s" and spread > bound:
                    flags.append(f"{workload} {name}: {label} spread {spread:.3f} > bound {bound}")
            if len(sides) == 2:
                (_, a_r, a_med), (_, b_r, b_med) = sides
                change = worse_by(a_med, b_med, better)
                pairs = _pairs(a_r, b_r, name)
                wins = sum(1 for a, b in pairs if worse_by(a, b, better) < 0)
                ties = sum(1 for a, b in pairs if a == b)
                row.append(f"B worse by {change:+.3f} (bound {bound}); B wins {wins}/{len(pairs)} pairs, {ties} ties")
                if change > bound:
                    flags.append(f"{workload} {name}: B median worse by {change:.3f} > bound {bound}")
            lines.append("  ".join(row))
    return lines, flags


def _pairs(a_runs: dict, b_runs: dict, name: str) -> list[tuple[float, float]]:
    """Pair runs by seed when both sides used the same seeds, else by order."""
    common = sorted(set(a_runs) & set(b_runs))
    if common:
        keys = [(s, s) for s in common]
    else:
        keys = list(zip(sorted(a_runs), sorted(b_runs)))
    return [(a_runs[i]["metrics"][name]["value"], b_runs[j]["metrics"][name]["value"]) for i, j in keys]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("a", help="result directory or file (the base, e.g. the parent commit)")
    parser.add_argument("b", nargs="?", help="result directory or file to compare against A")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    a_set = load(args.a)
    b_set = load(args.b) if args.b else None
    if not a_set or (args.b and not b_set):
        print("error: no untraced result files found", file=sys.stderr)
        return 2
    lines, flags = compare(a_set, b_set, spec)
    print("\n".join(lines))
    print("\nflagged:" if flags else "\nnothing outside the bounds")
    for f in flags:
        print(f"  {f}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
