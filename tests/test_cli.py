"""End-to-end CLI behavior: subcommands, CSV contracts, exit codes."""

import numpy as np
import pytest

from linkedkde import cli
from linkedkde.cli import EXIT_INVALID_INPUT, EXIT_NUMERICAL, EXIT_OK, main


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


def test_memory_error_exits_with_numerical_failure(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError("Unable to allocate 298. GiB")

    monkeypatch.setattr(cli, "_cmd_eigs", out_of_memory)
    assert run_cli("eigs", "--m", "200000", "--r", "2") == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "out of memory" in err


def test_missing_input_exits_with_invalid_input(tmp_path):
    code = run_cli("estimate", "--input", str(tmp_path / "missing.csv"),
                   "--r", "1", "--bandwidth", "fixed:0.01")
    assert code == EXIT_INVALID_INPUT


def test_out_of_range_samples_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5\n1.5\n")
    code = run_cli("estimate", "--input", str(bad), "--r", "1", "--bandwidth", "fixed:0.01")
    assert code == EXIT_INVALID_INPUT


def test_bad_target_rejected(tmp_path):
    code = run_cli("synth", "--target", "nope", "--n", "10",
                   "--output", str(tmp_path / "x.csv"))
    assert code == EXIT_INVALID_INPUT


def test_bad_bandwidth_rule_rejected(tmp_path):
    samples = tmp_path / "s.csv"
    samples.write_text("0.2\n0.4\n0.6\n")
    code = run_cli("estimate", "--input", str(samples), "--r", "1", "--bandwidth", "horse")
    assert code == EXIT_INVALID_INPUT


def test_ratio_estimation_fallback_warns_but_succeeds(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("\n".join(str(v) for v in np.linspace(0.3, 0.6, 30)) + "\n")
    out_path = tmp_path / "d.csv"
    code = run_cli("estimate", "--input", str(samples), "--r", "est",
                   "--bandwidth", "fixed:0.02", "--output", str(out_path))
    assert code == EXIT_OK
    assert "falling back" in capsys.readouterr().err
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
