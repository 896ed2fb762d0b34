"""Run one benchmark workload against the linkedkde sources in ./src.

    python3 perfbench/run.py --workload cli_lscv --seed 1 --seconds 15 --trace 0

One process drives the workload as a closed loop with a single caller:
each op starts when the previous one returns, for ``--seconds`` seconds.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the ops rotate through untraced, span-traced and
allocation-traced runs and the line carries the per-layer metrics. Each
run also writes its full result, with a run record, to ``--results``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; recorded in every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
MIN_OPS = 3
MODES = ("plain", "spans", "alloc")
WORKLOAD_NAMES = ("cli_lscv", "library_kernel", "bench_sweep", "binned")
END_TO_END = {
    "throughput_ops_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "mean_ise": "1",
    "setup_s": "s",
}


def _import_package():
    """Import linkedkde from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "linkedkde", "__init__.py")):
        raise SystemExit(f"no linkedkde sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import linkedkde

    if not os.path.abspath(linkedkde.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported linkedkde from {linkedkde.__file__}, not from {SRC}")
    return linkedkde


def setup(workload: str, seed: int, workdir: str):
    """Import the package, generate the run's inputs and warm up; returns (state, seconds)."""
    start = time.perf_counter()
    _import_package()
    import workloads

    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[workload]()
    pool = wl.make_inputs(seed, workdir, range(wl.pool), wl.n, "in")
    panel = wl.make_inputs(workloads.PANEL_SEED, workdir, wl.panel, wl.n, "panel")
    warm = workloads.warmup_variant(workload)
    warm.op(warm.make_inputs(seed, workdir, range(1), wl.small_n, "warm")[0], os.path.join(workdir, "warm.out"))
    return (wl, pool, panel), time.perf_counter() - start


def _digest(pool) -> str:
    h = hashlib.sha256()
    for inp in pool:
        if os.path.isfile(inp.path):
            with open(inp.path, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(inp.values.tobytes())
    return h.hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "linkedkde")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_record(args, ops: dict, pool) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one process",
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "input_sha256": _digest(pool),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "ops": ops,
    }


def probe_setups(args, count: int) -> list[float]:
    """Set-up time of fresh processes, each importing and generating from scratch."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class CorePicker:
    """Pins this process, before each op, to the usable CPU that runs a probe fastest.

    The host's cores are shared with other tenants, and one core can run
    30% slower than the other for minutes at a time. A short probe on
    each usable CPU, run just before an op, lets the op run on the core
    least slowed by its neighbours, so runs measure the program rather
    than the load beside it.
    """

    def __init__(self):
        import numpy as np

        self._cpus = sorted(os.sched_getaffinity(0))
        self._x = np.random.default_rng(0).random(50_000)
        self.picks: list[int] = []

    def _probe(self) -> float:
        import numpy as np

        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            np.cos(self._x).sum()
            best = min(best, time.perf_counter() - start)
        return best

    def pin(self) -> None:
        timings = []
        for cpu in self._cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((self._probe(), cpu))
        cpu = min(timings)[1]
        os.sched_setaffinity(0, {cpu})
        self.picks.append(cpu)

    def release(self) -> None:
        os.sched_setaffinity(0, self._cpus)


class ReferenceKernel:
    """A fixed numpy workload, timed before every untraced op, that defines reference seconds.

    Other tenants slow this host by up to 25% for minutes at a time, on
    both cores at once, so even pinned runs drift. The kernel does what the
    ops spend their time on, at the ops' array sizes: mode-by-point cos/sin
    tables, Gaussian kernel blocks, a dense solve and interpreter-bound
    Python, and it slows with them, though not one for one. Over 40 runs
    the least-squares slope of log median op time on log median kernel
    time was 0.42 pooled (0.81 for bench_sweep, 0.65 for cli_lscv, 0.36 for
    library_kernel, about 0 for binned). So op times are scaled by the
    square root of NOMINAL_S over the kernel's median time in the run: a
    control variate with coefficient 1/2. On those runs this kept every
    workload's quartile spread of the median op time between 0.05 and
    0.07, where the unscaled spread reached 0.13 (cli_lscv) and full
    scaling reached 0.11 (binned).
    """

    NOMINAL_S = 0.115  # the kernel's typical time on the 2-core reference host
    WEIGHT = 0.5

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._x = rng.random(10_000)
        self._k = 2.0 * np.pi * np.arange(1, 124)
        self._grid = np.linspace(0.0, 1.0, 1001)
        self._m = rng.random((300, 300)) + 300.0 * np.eye(300)
        self.times: list[float] = []

    def measure(self) -> None:
        import numpy as np

        start = time.perf_counter()
        phase = np.outer(self._k, self._x)
        (np.cos(phase) * self._x).sum(axis=0)
        np.sin(phase).sum(axis=0)
        z = (self._grid[None, :] - self._x[:1024, None]) / 0.05
        np.exp(-0.5 * z * z).sum(axis=0)
        np.linalg.solve(self._m, self._m[:, :150])
        acc = 0.0
        for v in self._x[:3000].tolist():
            acc += v * v
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Reference seconds per measured second in this run."""
        return (self.NOMINAL_S / statistics.median(self.times)) ** self.WEIGHT


def timed_loop(wl, pool, workdir, seconds, tracer=None, reference=None):
    """Run ops back to back until the time is up; outputs are checked after the loop."""
    import tracemalloc

    ops = []  # (mode, wall seconds, input, result or exception)
    cores = CorePicker()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < MIN_OPS:
        mode = MODES[i % len(MODES)] if tracer is not None else "plain"
        inp = pool[i % len(pool)]
        out = os.path.join(workdir, f"out{i}.csv")
        cores.pin()
        if reference is not None:
            reference.measure()
        if mode != "plain":
            tracer.op_id = i
            tracer.install(mode)
            if mode == "alloc":
                tracemalloc.start()
        t0 = time.perf_counter()
        try:
            result = wl.op(inp, out)
        except Exception as exc:  # counted as a failed op; the loop goes on
            result = exc
        wall = time.perf_counter() - t0
        if mode != "plain":
            if mode == "alloc":
                tracemalloc.stop()
            tracer.uninstall()
        ops.append((mode, wall, inp, result))
        i += 1
    elapsed = time.perf_counter() - start
    cores.release()
    checked = [(mode, wall, result, None if isinstance(result, Exception) else wl.check(inp, result))
               for mode, wall, inp, result in ops]
    return checked, elapsed, cores.picks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", default=os.path.join(OUT, "results"), help="directory for result files")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, "work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if not os.path.isfile(os.path.join(SRC, "linkedkde", "__init__.py")):
        print(f"error: no linkedkde sources under {SRC}", file=sys.stderr)
        return 2

    setups = [] if args.trace else probe_setups(args, SETUP_SAMPLES - 1)
    (wl, pool, panel), own_setup = setup(args.workload, args.seed, workdir)
    setups.append(own_setup)

    panel_ise, failures, failed = [], [], 0
    for j, inp in enumerate(panel):
        try:
            outcome = wl.check(inp, wl.op(inp, os.path.join(workdir, f"panel{j}.out")))
        except Exception as exc:
            outcome = None
            failures.append(f"panel op {j} raised {exc!r}")
        if outcome is None or outcome.failures or outcome.ise is None:
            failed += 1
            failures += outcome.failures if outcome else []
        else:
            panel_ise.append(outcome.ise)

    tracer = reference = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    else:
        reference = ReferenceKernel()
    ops, elapsed, picks = timed_loop(wl, pool, workdir, args.seconds, tracer, reference)

    for k, (mode, wall, result, outcome) in enumerate(ops):
        if isinstance(result, Exception):
            failed += 1
            failures.append(f"op {k} raised {result!r}")
        elif outcome.failures:
            failed += 1
            failures += [f"op {k}: {msg}" for msg in outcome.failures]
    attempted = len(ops) + len(panel)
    walls = [wall for _, wall, _, _ in ops]
    plain = [wall for mode, wall, _, _ in ops if mode == "plain"]
    op_ise = [o.ise for _, _, _, o in ops if o is not None and o.ise is not None]

    if args.trace:
        metrics = _trace_metrics(tracer, ops, plain)
    else:
        measured = {"throughput_ops_s": len(ops) / sum(walls), "op_p50_s": statistics.median(walls)}
        scale = reference.scale()
        values = {
            "throughput_ops_s": measured["throughput_ops_s"] / scale,
            "op_p50_s": measured["op_p50_s"] * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
            # 1.0 stands in when no panel op passed; the run is then marked incorrect.
            "mean_ise": statistics.fmean(panel_ise) if panel_ise else 1.0,
            # Set-up is import and file work, which the kernel does not track
            # (scaling it widened its spread), so it stays in wall seconds.
            "setup_s": statistics.median(setups),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    ops_count = {
        "timed": len(ops),
        "panel": len(panel),
        "by_mode": {m: sum(1 for mode, *_ in ops if mode == m) for m in MODES},
        "op_p50_samples": len(walls),
        "elapsed_s": elapsed,
        "ops_per_cpu": {str(c): picks.count(c) for c in sorted(set(picks))},
    }
    result = {
        "correct": failed == 0 and bool(panel_ise),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = dict(result)
    if reference is not None:
        full["reference"] = {"scale": scale, "kernel_s": reference.times, "wall_clock_metrics": measured}
    full.update({
        "record": run_record(args, ops_count, pool),
        "setup_samples_s": setups,
        "op_wall_s": walls,
        "timed_op_ise": op_ise,
        "panel_ise": panel_ise,
        "failures": failures[:20],
    })
    if tracer is not None:
        full["absent_layers"] = tracer.absent
        full["counter_failures"] = tracer.counter_failures
        _write_json(os.path.join(OUT, "traces", f"{args.workload}-s{args.seed}.json"),
                    {"record": full["record"], "spans": [s for s in tracer.spans if s is not None],
                     "span_fields": ["id", "name", "start_s", "end_s", "parent", "op"]})
    _write_json(os.path.join(args.results, f"{args.workload}-s{args.seed}-t{args.trace}.json"), full)

    for msg in failures[:5]:
        print(f"check failed: {msg}")
    if tracer is not None and tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}")
    print(json.dumps(result))
    return 0


def _trace_metrics(tracer, ops, plain_walls) -> dict:
    import tracer as tracing

    spans = [(k, wall) for k, (mode, wall, _, _) in enumerate(ops) if mode == "spans"]
    traced_wall = statistics.median(w for _, w in spans)
    plain_wall = statistics.median(plain_walls)
    covered = sum(tracer.op_self_s.get(k, 0.0) for k, _ in spans)
    values = tracer.metrics(len(spans))
    values.update({
        "trace.op_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
        "trace.uncovered_share": 1.0 - covered / sum(w for _, w in spans),
        "trace.absent_layers": len(tracer.absent),
        "trace.counter_failures": len(tracer.counter_failures),
    })
    units = tracing.metric_units()
    return {name: (values[name], units[name][0]) for name in units}


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
