"""End-to-end CLI behavior: subcommands, CSV contracts, exit codes."""

import gzip
import hashlib
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkedkde import cli, estimate_density, estimate_r, experiments, lscv_bandwidth, parse_target, sample_synthetic
from linkedkde import EvaluationGrid, series_solver, silverman_bandwidth, spectral_data
from linkedkde.bandwidth import DEFAULT_LSCV_GRID
from linkedkde.binned_solver import SpectralData
from linkedkde.cli import EXIT_INVALID_INPUT, EXIT_NUMERICAL, EXIT_OK, build_parser, main


def run_cli(*argv):
    return main(list(argv))


def read_density_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "x,density"
    return np.loadtxt(path, delimiter=",", skiprows=1)


def test_synth_then_estimate_series(tmp_path):
    samples_path = str(tmp_path / "samples.csv")
    out_path = str(tmp_path / "density.csv")
    assert run_cli(
        "synth", "--target", "beta_mixture:a=2", "--n", "400", "--seed", "3",
        "--output", samples_path,
    ) == EXIT_OK
    raw = np.loadtxt(samples_path)
    assert raw.shape == (400,)
    assert raw.min() >= 0.0 and raw.max() <= 1.0

    assert run_cli(
        "estimate", "--input", samples_path, "--r", "0.5",
        "--bandwidth", "fixed:0.01", "--method", "series",
        "--grid", "501", "--output", out_path,
    ) == EXIT_OK
    data = read_density_csv(out_path)
    assert data.shape == (501, 2)
    x, density = data[:, 0], data[:, 1]
    assert np.trapezoid(density, x) == pytest.approx(1.0, abs=1e-5)
    assert density[0] == pytest.approx(0.5 * density[-1], rel=1e-8)


def test_estimate_binned_emits_full_node_set(tmp_path):
    samples_path = str(tmp_path / "samples.csv")
    out_path = str(tmp_path / "density.csv")
    run_cli("synth", "--target", "parabolic", "--n", "300", "--seed", "1",
            "--output", samples_path)
    assert run_cli(
        "estimate", "--input", samples_path, "--r", "2", "--bandwidth", "fixed:0.005",
        "--method", "binned", "--bins", "49", "--output", out_path,
    ) == EXIT_OK
    data = read_density_csv(out_path)
    assert data.shape == (51, 2)  # 49 interior nodes plus both boundary values
    assert data[0, 0] == 0.0 and data[-1, 0] == 1.0
    assert data[0, 1] == pytest.approx(2.0 * data[-1, 1], rel=1e-12)


def test_estimate_with_estimated_ratio_and_silverman(tmp_path):
    samples_path = str(tmp_path / "samples.csv")
    out_path = str(tmp_path / "density.csv")
    run_cli("synth", "--target", "beta_mixture:a=2", "--n", "2000", "--seed", "5",
            "--output", samples_path)
    assert run_cli(
        "estimate", "--input", samples_path, "--r", "est",
        "--bandwidth", "silverman", "--output", out_path,
    ) == EXIT_OK
    data = read_density_csv(out_path)
    assert data.shape == (1001, 2)
    samples = np.loadtxt(samples_path)
    want = estimate_density(samples, estimate_r(samples), silverman_bandwidth(samples).t).values
    assert np.array_equal(data[:, 1], want)


def test_estimate_with_cross_validated_bandwidth(tmp_path):
    samples_path = str(tmp_path / "samples.csv")
    out_path = str(tmp_path / "density.csv")
    run_cli("synth", "--target", "parabolic", "--n", "200", "--seed", "2",
            "--output", samples_path)
    assert run_cli(
        "estimate", "--input", samples_path, "--r", "2.0",
        "--bandwidth", "lscv", "--grid", "201", "--output", out_path,
    ) == EXIT_OK
    data = read_density_csv(out_path)
    assert data.shape == (201, 2)
    assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-4)


def test_lscv_estimate_makes_one_transform_call(tmp_path, monkeypatch):
    # LSCV's fit at 2N modes also reads the estimate at the chosen time
    samples_path = str(tmp_path / "samples.csv")
    out_path = str(tmp_path / "density.csv")
    run_cli("synth", "--target", "parabolic", "--n", "2000", "--seed", "4", "--output", samples_path)
    calls = []
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "linkedkde"]:
        exact = getattr(module, "empirical_transforms", None)
        if exact is not None:
            def spy(samples, N, exact=exact):
                calls.append(N)
                return exact(samples, N)

            monkeypatch.setattr(module, "empirical_transforms", spy)
    assert run_cli(
        "estimate", "--input", samples_path, "--r", "2", "--bandwidth", "lscv",
        "--method", "series", "--output", out_path,
    ) == EXIT_OK
    assert len(calls) == 1
    monkeypatch.undo()

    samples = np.loadtxt(samples_path)
    want = estimate_density(samples, 2.0, lscv_bandwidth(samples, 2.0, DEFAULT_LSCV_GRID).t).values
    got = read_density_csv(out_path)[:, 1]
    # the fit sums the modes the chosen t needs, as estimate_density does;
    # the two transform calls, at 2N and N modes, take Taylor plans of their
    # own, and their estimates were 3.7e-16 of the maximum apart
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_lscv_estimate_calls_lscv_bandwidth_once(tmp_path, monkeypatch):
    # the CLI's choice is the public LSCV rule's record, over the default grid
    samples_path = str(tmp_path / "samples.csv")
    run_cli("synth", "--target", "parabolic", "--n", "300", "--seed", "4", "--output", samples_path)
    calls = []
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "linkedkde"]:
        exact = getattr(module, "lscv_bandwidth", None)
        if exact is not None:
            def spy(samples, r, t_grid, exact=exact):
                calls.append(np.size(t_grid))
                return exact(samples, r, t_grid)

            monkeypatch.setattr(module, "lscv_bandwidth", spy)
    assert run_cli(
        "estimate", "--input", samples_path, "--bandwidth", "lscv", "--grid", "11",
        "--output", str(tmp_path / "density.csv"),
    ) == EXIT_OK
    assert calls == [DEFAULT_LSCV_GRID.size]


def test_oracle_on_infinite_slope_names_it(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run_cli(
        "bench", "--target", "beta_mixture:a=1.5", "--ns", "50", "--reps", "1", "--output", str(out),
    ) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "f'(0) is infinite" in err
    assert "--bandwidth silverman|lscv" in err
    assert not out.exists()


def test_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert run_cli(
            "bench", "--target", "cosine_bump:amp=0.5", "--methods", "linked,cosine",
            "--ns", "50,100", "--reps", "2", "--seed", "9", "--output", str(out),
        ) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    assert lines[0] == "method,n,reps,mean_ise,mean_l2,mean_linf"
    assert len(lines) == 5


def test_bench_rejects_unknown_method_before_any_sweep(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(experiments, "sample_synthetic", no_sampling)
    out = tmp_path / "bench.csv"
    for argv, message in (
        (("--methods", "linked,nope"), "nope"),
        (("--bandwidth", "horse"), "error: unknown bandwidth rule 'horse'\n"),
        (("--bandwidth", "fixed"), "error: fixed bandwidth rule needs a value for t\n"),
        (("--bandwidth", "fixed:-1"), "error: diffusion time t must be positive and finite, got -1.0\n"),
        # a fixed t goes only with fixed, so no other rule drops it unread
        (("--bandwidth", "oracle:0.01"), "not with 'oracle'"),
        (("--bandwidth", "lscv:0.01"), "not with 'lscv'"),
    ):
        code = run_cli("bench", "--target", "parabolic", "--ns", "100", "--reps", "1", *argv, "--output", str(out))
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err


def test_eigs_csv(tmp_path):
    out_path = tmp_path / "eigs.csv"
    for r in ("0.5", "1"):
        assert run_cli("eigs", "--m", "10", "--r", r, "--output", str(out_path)) == EXIT_OK
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "index,angle,eigenvalue,residual_inf"
        rows = np.loadtxt(str(out_path), delimiter=",", skiprows=1)
        assert rows.shape == (10, 4)
        assert rows[:, 3].max() <= 1e-10
        assert np.count_nonzero(rows[:, 2] == 0.0) == 1


@pytest.mark.parametrize("m, r", [(10, 0.5), (10, 1.0), (1599, 0.5)])
def test_eigs_csv_matches_per_row_formatting(tmp_path, m, r):
    # the row-by-row rendering, integer index included, that the float-column CSV replaced
    out_path = tmp_path / "eigs.csv"
    assert run_cli("eigs", "--m", str(m), "--r", str(r), "--output", str(out_path)) == EXIT_OK
    sd = spectral_data(m, r)
    res = sd.residuals()
    lines = ["index,angle,eigenvalue,residual_inf"]
    lines += [f"{i + 1},{sd.angles[i]:.17g},{sd.eigenvalues[i]:.17g},{res[i]:.17g}" for i in range(m)]
    assert out_path.read_text() == "\n".join(lines) + "\n"


def test_eigs_non_finite_residuals_exit_with_numerical_failure(tmp_path, capsys, monkeypatch):
    def nan_residual(self):
        return np.full(self.m, np.nan)

    monkeypatch.setattr(SpectralData, "residuals", nan_residual)
    out_path = tmp_path / "eigs.csv"
    assert run_cli("eigs", "--m", "5", "--r", "2", "--output", str(out_path)) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "not finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("m, r", [(50, "1e307"), (3, "1e308"), (2, "1e308")])
def test_eigs_answers_at_the_largest_ratios(tmp_path, m, r):
    # the eigenvectors are written in q = (1-r)/(1+r), so r m and r sin(theta) never overflow
    out_path = tmp_path / "eigs.csv"
    assert run_cli("eigs", "--m", str(m), "--r", r, "--output", str(out_path)) == EXIT_OK
    rows = np.loadtxt(str(out_path), delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (m, 4)
    assert rows[:, 3].max() <= 1e-12


def test_memory_error_exits_with_numerical_failure(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError("Unable to allocate 298. GiB")

    monkeypatch.setattr(cli, "_cmd_eigs", out_of_memory)
    assert run_cli("eigs", "--m", "200000", "--r", "2") == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "out of memory" in err


@pytest.mark.parametrize("bandwidth", ["lscv", "fixed:0.5"])
def test_non_finite_estimate_exits_with_numerical_failure(tmp_path, capsys, monkeypatch, bandwidth):
    # an estimate that comes back NaN at one grid point must never be written;
    # LSCV's fit and estimate_density both read the series through evaluate
    exact = series_solver._SpectralFit.evaluate

    def nan_at_midpoint(*args, **kwargs):
        values = exact(*args, **kwargs)
        values[values.size // 2] = np.nan
        return values

    monkeypatch.setattr(series_solver._SpectralFit, "evaluate", nan_at_midpoint)
    samples_path = str(tmp_path / "samples.csv")
    out_path = tmp_path / "density.csv"
    run_cli("synth", "--target", "parabolic", "--n", "500", "--seed", "0",
            "--output", samples_path)
    capsys.readouterr()
    code = run_cli("estimate", "--input", samples_path, "--r", "2",
                   "--bandwidth", bandwidth, "--output", str(out_path))
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "not finite at 1 of 1001 points" in err
    assert not out_path.exists()


def test_time_past_the_series_mode_cap_exits_numerical(tmp_path, capsys):
    # t = 1e-9 takes 41,695 modes on the series route; t = 5e-11 needs more
    # than the cap of 2^17 and fails with a TruncationError, exit 3
    samples_path = str(tmp_path / "samples.csv")
    run_cli("synth", "--target", "parabolic", "--n", "200", "--seed", "0", "--output", samples_path)
    out_path = tmp_path / "density.csv"
    assert run_cli("estimate", "--input", samples_path, "--r", "2", "--bandwidth", "fixed:1e-9",
                   "--output", str(out_path)) == EXIT_OK
    assert np.all(np.isfinite(read_density_csv(out_path)))
    capsys.readouterr()
    for argv in (
        ("estimate", "--input", samples_path, "--r", "2", "--bandwidth", "fixed:5e-11"),
        ("bench", "--target", "parabolic", "--ns", "100", "--reps", "1", "--bandwidth", "fixed:5e-11"),
    ):
        assert run_cli(*argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "after 131072 modes (t=5e-11)" in err


def test_binned_time_past_any_step_count_exits_ok(tmp_path):
    # T / dt overflows: the binned route gives the stationary profile
    samples_path = str(tmp_path / "samples.csv")
    out_path = tmp_path / "density.csv"
    run_cli("synth", "--target", "parabolic", "--n", "200", "--seed", "0", "--output", samples_path)
    assert run_cli("estimate", "--input", samples_path, "--method", "binned", "--r", "2",
                   "--bandwidth", "fixed:1e308", "--output", str(out_path)) == EXIT_OK
    assert np.all(np.isfinite(read_density_csv(str(out_path))))


def test_binned_long_horizon_reaches_uniform(tmp_path):
    # 1.28M backward-Euler steps at m = 1599, t = 1: the spectral multiplier takes no loop
    samples_path = tmp_path / "samples.csv"
    out_path = tmp_path / "density.csv"
    run_cli("synth", "--target", "parabolic", "--n", "300", "--seed", "1",
            "--output", str(samples_path))
    with open(samples_path, "a", encoding="utf-8") as fh:
        fh.write("0\n0\n1\n")
    assert run_cli(
        "estimate", "--input", str(samples_path), "--method", "binned", "--bins", "1599",
        "--bandwidth", "fixed:1", "--r", "1", "--output", str(out_path),
    ) == EXIT_OK
    data = read_density_csv(str(out_path))
    assert data.shape == (1601, 2)
    # the stationary vector at r = 1 is flat, with discrete mass h * sum = 1
    assert np.abs(data[:, 1] - 1600.0 / 1599.0).max() <= 1e-9


def test_missing_input_exits_with_invalid_input(tmp_path):
    code = run_cli("estimate", "--input", str(tmp_path / "missing.csv"),
                   "--r", "1", "--bandwidth", "fixed:0.01")
    assert code == EXIT_INVALID_INPUT


def test_missing_input_is_not_read_from_a_compressed_file(tmp_path, capsys):
    # only s.csv.gz exists; np.loadtxt, given s.csv, would read it in its place
    with gzip.open(tmp_path / "s.csv.gz", "wb") as fh:
        fh.write(b"0.25\n0.5\n")
    path, out_path = tmp_path / "s.csv", tmp_path / "density.csv"
    code = run_cli("estimate", "--input", str(path), "--r", "1", "--bandwidth", "fixed:0.01", "--output", str(out_path))
    assert code == EXIT_INVALID_INPUT
    assert not out_path.exists()
    assert f"cannot read samples from {path}" in capsys.readouterr().err


def test_empty_input_reports_one_error_line(tmp_path):
    # in a fresh process, so a warning numpy prints would reach stderr
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["estimate", "--input", str(empty), "--r", "1", "--bandwidth", "fixed:0.01"]
    out = subprocess.run([sys.executable, "-m", "linkedkde.cli", *argv], capture_output=True, text=True, env=env)
    assert out.returncode == EXIT_INVALID_INPUT
    assert out.stderr == "error: sample set must contain at least one observation\n"


def test_bench_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    # fresh processes, since BLAS reads its thread count when numpy loads
    src = os.path.dirname(os.path.dirname(cli.__file__))
    csvs = []
    for threads in ("1", "2"):
        out_path = tmp_path / f"bench-{threads}.csv"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
        )
        argv = ["bench", "--target", "parabolic", "--ns", "100,1000", "--reps", "1", "--output", str(out_path)]
        subprocess.run([sys.executable, "-m", "linkedkde.cli", *argv], env=env, check=True)
        csvs.append(out_path.read_bytes())
    assert csvs[0] == csvs[1]


# SHA-256 of the bench CSV of parabolic, --ns 100,316,3000, --reps 3, --seed 5,
# recorded before the sweep took blocks of replicates (one replicate and one
# sample size at a time): three replicates now share one block.
GOLDEN_SWEEPS = {
    "oracle": "31973e61448726b7c552435e77d2853f381dd45864ab9c2f026d7bd421e43e22",
    "silverman": "ab2bfcd10f4ca41edb01c10aa9f9769858545135c225228ff17a1b04dd6979a3",
    "lscv": "360e91018fd0dbdda3c2e905613944f3b54e1623e8c703916f89e2232ab8c57b",
    "fixed:0.002": "515e0be48d78359244328a157e361f04960f7dd65868a955a668693ae7ba0b6d",
}


@pytest.mark.parametrize("bandwidth", sorted(GOLDEN_SWEEPS))
def test_bench_csv_keeps_its_recorded_bytes(tmp_path, bandwidth):
    out_path = tmp_path / "bench.csv"
    argv = ["bench", "--target", "parabolic", "--ns", "100,316,3000", "--reps", "3", "--seed", "5"]
    assert run_cli(*argv, "--bandwidth", bandwidth, "--output", str(out_path)) == EXIT_OK
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GOLDEN_SWEEPS[bandwidth]


# SHA-256 of `synth --target parabolic --n 10000 --seed 11` and of estimates on
# that file, recorded before every closed form read q from types._q_weights.
GOLDEN_SYNTH = "57cec4e14aafd27fffc15d3f815183ab6c99069f2a373570115027b04595244c"
GOLDEN_ESTIMATES = {
    ("--bandwidth", "silverman"): "a9237efd5bab0445b378207166e058f8a40484391fd6fd81afcc9fc20bbf1d3a",
    ("--bandwidth", "lscv"): "28689615fc086022cf2054e6f97ed8a1254acdf406a67dad800b234b0ebd1ea6",
    ("--bandwidth", "fixed:1e-7"): "78e4f0227e990d1c7224b40dd512efd62d30eff390200023ab91aa3dc9fea91f",
    ("--r", "1e300", "--bandwidth", "fixed:0.01"): "8148d37bef3a7628b2f28289d55465aeeee5c8e520afe220d299a3c60ba13ec7",
    ("--method", "binned", "--bins", "1599"): "88f68907190208171dcdab6c22cadf81b488dac0b715bc866db267a4c2c62d24",
}


@pytest.fixture(scope="module")
def parabolic_10k(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "x.csv"
    assert run_cli("synth", "--target", "parabolic", "--n", "10000", "--seed", "11", "--output", str(path)) == EXIT_OK
    return path


def test_synth_keeps_its_recorded_bytes(parabolic_10k):
    assert hashlib.sha256(parabolic_10k.read_bytes()).hexdigest() == GOLDEN_SYNTH


@pytest.mark.parametrize("options", sorted(GOLDEN_ESTIMATES), ids=" ".join)
def test_estimate_csv_keeps_its_recorded_bytes(tmp_path, parabolic_10k, options):
    out_path = tmp_path / "density.csv"
    argv = ["estimate", "--input", str(parabolic_10k), "--r", "est", *options, "--output", str(out_path)]
    assert run_cli(*argv) == EXIT_OK
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GOLDEN_ESTIMATES[options]


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--r", "1", "--bandwidth", "fixed:0.01"],
        ["synth", "--target", "parabolic", "--n", "10"],
        ["bench", "--target", "parabolic", "--ns", "50", "--reps", "1"],
        ["eigs", "--m", "10", "--r", "2"],
    ],
)
def test_output_to_a_directory_is_invalid_input(tmp_path, capsys, argv):
    if argv[0] == "estimate":
        samples = tmp_path / "x.csv"
        samples.write_text("0.25\n0.5\n0.75\n")
        argv = argv + ["--input", str(samples)]
    assert run_cli(*argv, "--output", str(tmp_path)) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output to {tmp_path}: ")
    assert err.count("\n") == 1


def test_out_of_range_samples_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5\n1.5\n")
    code = run_cli("estimate", "--input", str(bad), "--r", "1", "--bandwidth", "fixed:0.01")
    assert code == EXIT_INVALID_INPUT


def test_bad_target_rejected(tmp_path):
    code = run_cli("synth", "--target", "nope", "--n", "10",
                   "--output", str(tmp_path / "x.csv"))
    assert code == EXIT_INVALID_INPUT


@pytest.mark.parametrize("target", ["beta_mixture:A=3", "parabolic:x=1", "cosine_bump:amp=0.3,typo=1", "trimodal:a=1"])
@pytest.mark.parametrize(
    "argv", [["synth", "--n", "10"], ["bench", "--ns", "50", "--reps", "1", "--methods", "linked"]]
)
def test_unknown_target_parameter_rejected(tmp_path, capsys, argv, target):
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--target", target, "--output", str(out)) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown parameter" in err
    assert not out.exists()


def test_bad_bandwidth_rule_rejected(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("0.2\n0.4\n0.6\n")
    for spec, message in (
        ("horse", "unknown bandwidth rule 'horse'"),
        ("Silverman", "unknown bandwidth rule 'Silverman'"),
        ("oracle", "estimate has no target for the oracle bandwidth (use silverman|lscv|fixed:VALUE)"),
        ("fixed", "fixed bandwidth rule needs a value for t"),
        ("fixed:0", "diffusion time t must be positive and finite, got 0.0"),
        ("lscv:1", "a fixed t (1.0) goes only with the fixed bandwidth rule, not with 'lscv'"),
        ("silverman:", "could not convert string to float: ''"),
    ):
        code = run_cli("estimate", "--input", str(samples), "--r", "1", "--bandwidth", spec)
        assert code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_bench_has_no_fixed_t_flag(capsys):
    # a fixed t is written into --bandwidth as fixed:VALUE, its only spelling
    with pytest.raises(SystemExit):
        run_cli("bench", "--target", "parabolic", "--bandwidth", "fixed", "--fixed-t", "0.01")
    assert "unrecognized arguments: --fixed-t" in capsys.readouterr().err


def test_identical_samples_rejected_by_silverman(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("0.3\n" * 30)
    out_path = tmp_path / "d.csv"
    code = run_cli("estimate", "--input", str(samples), "--r", "1", "--grid", "11",
                   "--output", str(out_path))
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == "error: sample has zero spread\n"
    assert not out_path.exists()


def test_rounding_level_spread_rejected_by_silverman(tmp_path, capsys):
    # 29 copies of 0.3 and the next double above it
    samples = tmp_path / "s.csv"
    samples.write_text("0.3\n" * 29 + f"{float(np.nextafter(0.3, 1.0))!r}\n")
    out_path = tmp_path / "d.csv"
    code = run_cli("estimate", "--input", str(samples), "--r", "1", "--grid", "11",
                   "--output", str(out_path))
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == "error: sample has zero spread\n"
    assert not out_path.exists()


def test_ratio_estimation_fallback_warns_but_succeeds(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("\n".join(str(v) for v in np.linspace(0.3, 0.6, 30)) + "\n")
    out_path = tmp_path / "d.csv"
    code = run_cli("estimate", "--input", str(samples), "--r", "est",
                   "--bandwidth", "fixed:0.02", "--output", str(out_path))
    assert code == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: boundary-ratio estimate failed (no samples above 1 - n^(-1/2) = 0.817426; "
        "ratio undefined); falling back to r=1\n"
    )
    data = read_density_csv(str(out_path))
    # fallback ratio is one: periodic boundary values agree
    assert data[0, 1] == pytest.approx(data[-1, 1], rel=1e-9)


def test_seventeen_significant_digits(tmp_path):
    out_path = tmp_path / "d.csv"
    samples = tmp_path / "s.csv"
    samples.write_text("0.25\n0.5\n0.75\n")
    run_cli("estimate", "--input", str(samples), "--r", "1",
            "--bandwidth", "fixed:0.04", "--grid", "11", "--output", str(out_path))
    line = out_path.read_text().strip().split("\n")[5]
    value = line.split(",")[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_parser_is_built_once_and_keeps_no_parsed_state(tmp_path):
    samples = tmp_path / "s.csv"
    assert run_cli("synth", "--target", "parabolic", "--n", "300", "--seed", "4", "--output", str(samples)) == EXIT_OK
    calls = [
        ("estimate", "--input", str(samples), "--r", "0.5", "--bandwidth", "fixed:0.01",
         "--method", "binned", "--bins", "49"),
        ("bench", "--target", "parabolic", "--methods", "linked", "--ns", "40,80", "--reps", "1"),
        # every option left at its default, after a call that set most of them
        ("estimate", "--input", str(samples)),
    ]

    def outputs(fresh):
        texts = []
        for i, argv in enumerate(calls):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{i}.csv"
            assert run_cli(*argv, "--output", str(out)) == EXIT_OK
            texts.append(out.read_bytes())
        return texts

    cached = outputs(fresh=False)
    assert build_parser() is build_parser()
    assert outputs(fresh=True) == cached
    assert cached[0] != cached[2]


def per_row_density_csv(x, values):
    # The row-by-row rendering that the block-wise %-format replaced.
    lines = ["x,density"] + [f"{xi:.17g},{vi:.17g}" for xi, vi in zip(x, values)]
    return "\n".join(lines) + "\n"


def test_density_csv_matches_per_row_formatting(monkeypatch):
    rng = np.random.default_rng(8)
    special = np.array([0.0, 1.0, -0.0, 5e-324, 1.0 / 3.0, 1e308])
    cases = (
        (special, special[::-1].copy()),
        (np.linspace(0.0, 1.0, 1601), rng.random(1601) * 10.0 ** rng.integers(-300, 300, 1601)),
        (np.array([0.5]), np.array([-2.5e-7])),
    )
    # blocks of 7 rows end mid-file (1601 = 228 * 7 + 5); 1600 leaves a one-row block
    for block in (1, 7, 1600, 1601, 2**16):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        for x, u in cases:
            assert "x,density\n" + "".join(cli._csv_rows(x, u)) == per_row_density_csv(x, u)


@pytest.mark.parametrize("block", [5, 7, 2**16])
def test_blocked_output_files_match_the_one_shot_format(tmp_path, monkeypatch, block):
    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    samples, density = tmp_path / "s.csv", tmp_path / "d.csv"
    assert run_cli("synth", "--target", "parabolic", "--n", "51", "--seed", "6", "--output", str(samples)) == EXIT_OK
    values = sample_synthetic(parse_target("parabolic"), 51, 6).values
    assert samples.read_text() == ("%.17g\n" * 51) % tuple(values.tolist())
    assert run_cli(
        "estimate", "--input", str(samples), "--r", "2", "--bandwidth", "fixed:0.01", "--grid", "36",
        "--output", str(density),
    ) == EXIT_OK
    grid = EvaluationGrid.uniform(36)
    x, u = grid.points, estimate_density(values, 2.0, 0.01, grid).values
    cells = np.column_stack((x, u)).ravel().tolist()
    assert density.read_text() == "x,density\n" + ("%.17g,%.17g\n" * 36) % tuple(cells)


def test_csv_output_memory_is_bounded_by_the_block(tmp_path):
    # formatting 2e5 rows at once held 27 MB; a block of 2^16 rows holds about 9 MB
    x = np.linspace(0.0, 1.0, 200_001)
    u = np.random.default_rng(2).random(x.size)
    tracemalloc.start()
    try:
        cli._write_text(str(tmp_path / "d.csv"), cli._csv_rows(x, u))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20
    assert (tmp_path / "d.csv").read_text().count("\n") == x.size


def test_synth_text_matches_per_row_formatting(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli("synth", "--target", "trimodal", "--n", "257", "--seed", "2", "--output", str(out)) == EXIT_OK
    values = sample_synthetic(parse_target("trimodal"), 257, 2).values
    assert out.read_text() == "\n".join(f"{v:.17g}" for v in values) + "\n"


def cell_text(values):
    return "".join(cli._csv_rows(np.asarray(values, dtype=float)))


def percent_text(values):
    values = np.asarray(values, dtype=float)
    return ("%.17g\n" * values.size) % tuple(values.tolist())


def exact_ties(rng, per_exponent=40):
    # v = j / 2^(s+1) with j odd has v 10^s = j 5^s / 2: a tie at the 17th digit when E = 16 - s
    ties = []
    for s in range(1, 21):
        low = -(-(10**16 << (s + 1)) // 10**s)
        high = min((10**17 << (s + 1)) // 10**s, 2**53)
        j = rng.integers(low // 2, high // 2, per_exponent) * 2 + 1
        ties.append(j / float(2 ** (s + 1)))
    return np.concatenate(ties)


class TestCellFormatting:
    """``_csv_rows`` writes each value as "%.17g" does, through its fast range and outside it."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert cell_text(values) == percent_text(values)

    def test_log_uniform_magnitudes(self):
        values = 10.0 ** np.random.default_rng(12).uniform(-6.0, 18.0, 100_000)
        assert cell_text(values) == percent_text(values)

    def test_exact_ties_round_to_even(self):
        ties = exact_ties(np.random.default_rng(13))
        for v in ties[::37]:
            s = 16 - int(np.floor(np.log10(v)))
            assert Fraction(v) * 10**s % 1 == Fraction(1, 2)
        assert cell_text([1125899906842624.25]) == "1125899906842624.2\n"
        assert cell_text(ties) == percent_text(ties)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
        values = np.concatenate((powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)))
        assert cell_text(values) == percent_text(values)

    def test_integers_keep_their_zeros(self):
        values = np.concatenate((np.arange(1.0, 2001.0), [1e15, 9007199254740993.0, 9999999999999998.0, 1e16]))
        assert cell_text(values) == percent_text(values)

    def test_values_outside_the_fast_range(self):
        values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1e308,
                  -1.7976931348623157e308, -1.5, -0.25, -1e-5, 9.9999999999999991e-05, 1e-300, 1e16, 1.5e17]
        assert cell_text(values) == percent_text(values)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 2**14])
    def test_chunks_of_a_block_join_into_its_rows(self, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        rng = np.random.default_rng(14)
        columns = (np.linspace(0.0, 1.0, 13), rng.random(13), -rng.random(13))
        for width in (1, 2, 3):
            cells = np.column_stack(columns[:width])
            lines = [",".join("%.17g" % c for c in row) for row in cells.tolist()]
            assert "".join(cli._csv_rows(*columns[:width])) == "\n".join(lines) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    def test_any_finite_double(self, values):
        assert cell_text(values) == percent_text(values)


SYNTH_TARGETS = ["beta_mixture:a=3", "cosine_bump:amp=0.5", "parabolic", "trimodal"]


@pytest.mark.parametrize("float_lines", [0, cli._FLOAT_LINES])
@pytest.mark.parametrize("n", [1, 200, 10_000])
@pytest.mark.parametrize("target", SYNTH_TARGETS)
def test_synth_files_read_back_exactly(tmp_path, monkeypatch, target, n, float_lines):
    # float_lines 0 sends even a one-line file through the numpy reader
    monkeypatch.setattr(cli, "_FLOAT_LINES", float_lines)
    path = tmp_path / "s.csv"
    assert run_cli("synth", "--target", target, "--n", str(n), "--seed", "5", "--output", str(path)) == EXIT_OK
    values = sample_synthetic(parse_target(target), n, 5).values
    if n == 10_000:
        # each of these draws holds a value below 1e-4, which "%.17g" writes with an exponent
        assert "e-" in path.read_text()
    assert cli._read_samples(str(path)).values.tobytes() == values.tobytes()


@pytest.mark.parametrize("block", [32, 64, 128, 200])
def test_blocks_cut_at_whole_lines(tmp_path, monkeypatch, block):
    # 16 lines of 8 bytes fill blocks of 32, 64 or 128 bytes exactly; in blocks of 32, a
    # short line and most of a long one carry more bytes than the block's lines took
    monkeypatch.setattr(cli, "_FLOAT_LINES", 0)
    monkeypatch.setattr(cli, "_READ_BLOCK", block)
    path = tmp_path / "s.csv"
    synth = "".join(cli._csv_rows(np.random.default_rng(4).random(300)))
    for text in ("0.12345\n" * 16, "0.5\n0.33333333333333333333333333\n" * 5, synth):
        path.write_text(text)
        want = np.array([float(line) for line in text.split()])
        assert cli._read_samples(str(path)).values.tobytes() == want.tobytes()
        path.write_text(text.rstrip("\n"))
        assert cli._read_samples(str(path)).values.tobytes() == want.tobytes()


LOADTXT_SHAPES = {
    "crlf": b"0.25\r\n0.5\r\n",
    "trailing spaces": b"0.25  \n0.5\n",
    "comment lines": b"# samples\n0.25\n0.5 # the middle\n",
    "blank lines": b"0.25\n\n0.5\n\n",
    "no final newline": b"0.25\n0.5",
    "zero": b"0\n0.5\n",
    "one": b"0.5\n1\n",
    "one point zero": b"1.0\n0.5\n",
    "no leading zero": b".5\n0.25\n",
    "exponent": b"5e-1\n0.25\n",
    "capital exponent": b"1E-5\n0.25\n",
    "line longer than a block": b"0.25\n0." + b"3" * 300 + b"\n",
}


@pytest.mark.parametrize("float_lines", [0, cli._FLOAT_LINES])
@pytest.mark.parametrize("text", LOADTXT_SHAPES.values(), ids=LOADTXT_SHAPES)
def test_other_line_shapes_read_as_loadtxt_reads_them(tmp_path, monkeypatch, text, float_lines):
    monkeypatch.setattr(cli, "_FLOAT_LINES", float_lines)
    monkeypatch.setattr(cli, "_READ_BLOCK", 256)
    path = tmp_path / "s.csv"
    path.write_bytes(text)
    want = np.loadtxt(path, dtype=float, ndmin=1)
    assert cli._read_samples(str(path)).values.tobytes() == want.tobytes()


def test_compressed_file_read_as_loadtxt_reads_it(tmp_path):
    path = tmp_path / "s.csv.gz"
    with gzip.open(path, "wb") as fh:
        fh.write(b"0.25\n0.5\n")
    assert cli._read_samples(str(path)).values.tolist() == [0.25, 0.5]


@pytest.mark.parametrize("float_lines", [0, cli._FLOAT_LINES])
@pytest.mark.parametrize("bad", ["abc", "0.5e", "-", "0.5.5", "0,5", "0-5", "0+5", "0/5", "0.5a", "0.5\x00"])
def test_unreadable_line_reports_the_loadtxt_error(tmp_path, capsys, monkeypatch, bad, float_lines):
    monkeypatch.setattr(cli, "_FLOAT_LINES", float_lines)
    path = tmp_path / "s.csv"
    path.write_text(f"0.25\n{bad}\n0.5\n")
    with pytest.raises(ValueError) as failure:
        np.loadtxt(path, dtype=float, ndmin=1)
    assert run_cli("estimate", "--input", str(path), "--r", "1", "--bandwidth", "fixed:0.01") == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == f"error: {failure.value}\n"


def test_read_memory_is_bounded_by_the_block(tmp_path):
    # 10^6 sample lines: np.loadtxt held 9.4 MB for a 7.6 MB result; the reader holds the
    # result, one block of text and the working arrays of the block's lines, about 16
    # bytes a byte of text at 20 bytes a line
    path = tmp_path / "s.csv"
    values = np.random.default_rng(9).random(10**6)
    cli._write_text(str(path), cli._csv_rows(values))
    peaks = []
    for read in (lambda: cli._read_samples(str(path)).values, lambda: np.loadtxt(path, dtype=float, ndmin=1)):
        tracemalloc.start()
        try:
            got = read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert got.tobytes() == values.tobytes()
    assert peaks[0] <= values.nbytes + 24 * cli._READ_BLOCK
    assert peaks[0] <= peaks[1]


def decimal_lines_values(tmp_path, lines):
    path = tmp_path / "lines.txt"
    path.write_text("\n".join(lines) + "\n")
    return cli._decimal_file(str(path))


def float_values(lines):
    return np.array([float(line) for line in lines])


def midpoint_decimals(rng, count):
    # "0." + k digits, k = 15..22, at and beside the midpoint between x and the next double
    lines = []
    for x in rng.random(count):
        below, above = Fraction(float(x)), Fraction(float(np.nextafter(x, 1.0)))
        mid = (below + above) / 2
        for k in range(15, 23):
            base = int(mid * 10**k)
            lines += ["0." + str(d).rjust(k, "0") for d in (base - 1, base, base + 1, base + 2) if 0 < d < 10**k]
    return lines


def nearest_midpoint_decimals(rng, per_case=2):
    # the decimals of k <= 22 digits, D < 2^63, nearest a midpoint M 2^-j (M odd, 2^53 < M < 2^54):
    # where M 5^k = D 2^(j-k) + t, D / 10^k lies 1 / (2 5^k) ulp from it, under 2^-30 for k >= 13
    lines = []
    for k in range(13, 23):
        for j in range(55, 84):
            mod = 2 ** (j - k)
            for t in (1, -1):
                residue = t * pow(5**k, -1, mod) % mod
                low, high = -(-(2**53 - residue) // mod), (2**54 - 1 - residue) // mod
                if low > high:
                    continue
                for s in rng.integers(low, high + 1, per_case).tolist():
                    d = ((residue + s * mod) * 5**k - t) // mod
                    if d < min(2**63, 10**k):
                        lines.append("0." + str(d).rjust(k, "0"))
    return lines


class TestDecimalLines:
    """The numpy reader returns what float() does, on the lines it converts and the ones it hands on."""

    @pytest.fixture(autouse=True)
    def every_file_through_numpy(self, monkeypatch):
        monkeypatch.setattr(cli, "_FLOAT_LINES", 0)

    def test_decimals_beside_midpoints(self, tmp_path):
        lines = midpoint_decimals(np.random.default_rng(21), 400) + nearest_midpoint_decimals(np.random.default_rng(22))
        assert decimal_lines_values(tmp_path, lines).tobytes() == float_values(lines).tobytes()

    def test_lines_nearest_a_midpoint_go_to_float(self, tmp_path, monkeypatch):
        # lines within 2^-30 ulp of a midpoint
        lines = nearest_midpoint_decimals(np.random.default_rng(23))
        handed = []
        float_lines = cli._float_lines
        monkeypatch.setattr(cli, "_float_lines", lambda text: handed.append(text) or float_lines(text))
        assert decimal_lines_values(tmp_path, lines).tobytes() == float_values(lines).tobytes()
        assert sorted(b"".join(handed).decode().split()) == sorted(lines)

    def test_powers_of_two_and_ten_and_their_neighbours(self, tmp_path):
        powers = np.concatenate((2.0 ** -np.arange(1, 40), 10.0 ** -np.arange(1, 23)))
        values = np.concatenate((powers, np.nextafter(powers, 0.0), np.nextafter(powers, 1.0)))
        lines = [f % v for v in values.tolist() for f in ("%.17g", "%.16g", "%.20f", "%.22f")]
        # the decimals beside the midpoint below each power of two, where the ulp halves
        for e in range(1, 40):
            mid = Fraction(2**54 - 1, 2 ** (54 + e))
            for k in range(15, 23):
                base = int(mid * 10**k)
                lines += ["0." + str(d).rjust(k, "0") for d in (base - 1, base, base + 1, base + 2) if d > 0]
        lines += ["0." + "0" * (k - 1) + "1" for k in range(1, 23)] + ["0." + "9" * k for k in range(1, 23)]
        assert decimal_lines_values(tmp_path, lines).tobytes() == float_values(lines).tobytes()

    def test_seeded_formats(self, tmp_path):
        rng = np.random.default_rng(24)
        values = np.concatenate((rng.random(25_000), 10.0 ** rng.uniform(-6.0, 0.0, 25_000)))
        formats = ("%.17g\n", "%.16g\n", "%.19f\n", "%.22f\n")
        lines = [line for f in formats for line in ((f * values.size) % tuple(values.tolist())).split()]
        assert len(lines) == 200_000
        assert decimal_lines_values(tmp_path, lines).tobytes() == float_values(lines).tobytes()
