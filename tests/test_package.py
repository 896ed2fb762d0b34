"""The package namespace: every exported name resolves, once."""

import argparse
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linkedkde
from linkedkde import bandwidth, binned_solver, cli, experiments, series_solver, targets, types


def test_every_exported_name_resolves_once():
    names = linkedkde.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(linkedkde, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from linkedkde import *", namespace)
    assert set(linkedkde.__all__) <= set(namespace)


def test_every_exported_name_is_documented():
    # the public surface is what the README and the demos show: a name that
    # neither uses has no caller to keep it working for
    root = Path(__file__).resolve().parent.parent
    texts = [root / "README.md", *sorted((root / "demos").glob("*.py"))]
    words = set(re.findall(r"\w+", "".join(path.read_text(encoding="utf-8") for path in texts)))
    assert [name for name in linkedkde.__all__ if name not in words] == []


def test_truncation_is_fixed_not_a_parameter():
    # one tolerance and one term cap, module constants in linkedkde.types
    assert "SummationControl" not in linkedkde.__all__
    assert not hasattr(linkedkde, "SummationControl")
    knobs = {"ctl", "tol", "max_terms"}
    offenders = []
    for name in linkedkde.__all__:
        obj = getattr(linkedkde, name)
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # the exception classes, built on builtin types
                continue
            offenders += [f"{name}({p})" for p in knobs & set(params)]
    assert offenders == []


def _bandwidth_help(parser: argparse.ArgumentParser, command: str) -> str:
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.help for a in commands.choices[command]._actions if "--bandwidth" in a.option_strings)


def test_rule_names_are_written_once(monkeypatch):
    # the rules as applied are bandwidth.RULES, and the rules as asked, which
    # _check_rule accepts and both subcommands' --bandwidth lists, are their
    # names up to the first "_": a rule added there reaches both
    parser = cli.build_parser()
    assert _bandwidth_help(parser, "bench") == "oracle|silverman|lscv|fixed:VALUE"
    assert _bandwidth_help(parser, "estimate") == "silverman|lscv|fixed:VALUE"
    for rule in ("oracle", "silverman", "lscv"):
        bandwidth._check_rule(rule)
    bandwidth._check_rule("fixed", 0.01)
    for rule in bandwidth.RULES[:2] + ("plugin",):
        with pytest.raises(ValueError, match=f"unknown bandwidth rule '{rule}'"):
            bandwidth._check_rule(rule)
    monkeypatch.setattr(bandwidth, "RULES", bandwidth.RULES + ("plugin_direct",))
    bandwidth._check_rule("plugin")
    parser = cli.build_parser.__wrapped__()
    assert _bandwidth_help(parser, "bench") == "oracle|silverman|lscv|fixed:VALUE|plugin"
    assert _bandwidth_help(parser, "estimate") == "silverman|lscv|fixed:VALUE|plugin"


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    code = (
        "import sys, linkedkde\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))"
    )
    src = os.path.dirname(os.path.dirname(linkedkde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"


def test_estimator_paths_leave_scipy_unloaded(tmp_path):
    # estimate (Silverman on the Taylor route, LSCV, binned), bench, eigs and
    # the estimator means run on numpy alone; scipy.special loads only for the
    # trimodal target
    code = (
        "import os, sys, linkedkde\n"
        "from linkedkde import cli\n"
        "d = sys.argv[1]\n"
        "x, out = os.path.join(d, 'x.csv'), os.path.join(d, 'out.csv')\n"
        "runs = [\n"
        "    ['synth', '--target', 'parabolic', '--n', '5000', '--seed', '1', '--output', x],\n"
        "    ['estimate', '--input', x, '--bandwidth', 'silverman', '--output', out],\n"
        "    ['estimate', '--input', x, '--bandwidth', 'lscv', '--output', out],\n"
        "    ['estimate', '--input', x, '--method', 'binned', '--output', out],\n"
        "    ['bench', '--target', 'parabolic', '--ns', '100,5000', '--reps', '1', '--output', out],\n"
        "    ['eigs', '--m', '20', '--r', '2', '--output', out],\n"
        "]\n"
        "print([cli.main(argv) for argv in runs])\n"
        "pdf = linkedkde.parse_target('parabolic').pdf\n"
        "linked = linkedkde.expected_linked_density(pdf, 2.0, 1e-4, [0.0, 0.5, 1.0])\n"
        "cosine = linkedkde.expected_cosine_density(pdf, 1e-4, [0.0, 0.5, 1.0])\n"
        "print(abs(linked[0] - 2.0 * linked[2]) < 1e-12, abs(cosine[1] - pdf(0.5)) < 1e-3)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "target = linkedkde.parse_target('trimodal')\n"
        "mean = linkedkde.expected_linked_density(target.pdf, 1.0, 0.01, [0.0, 0.5, 1.0])\n"
        "print(target.info.f_second_norm_sq > 0, abs(mean[0] - mean[2]) < 1e-12, 'scipy.special' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(linkedkde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "[0, 0, 0, 0, 0, 0]\nTrue True\n[]\nTrue True True\n"


SAMPLE = [0.2, 0.4, 0.6]
ARRAY_CONTAINERS = {
    "uniform grid": lambda: linkedkde.EvaluationGrid.uniform(5),
    "explicit grid": lambda: linkedkde.EvaluationGrid([0.25, 0.5]),
    "sample set": lambda: linkedkde.SampleSet(SAMPLE),
    "grid density": lambda: linkedkde.estimate_density(SAMPLE, 2.0, 0.01, linkedkde.EvaluationGrid.uniform(5)),
    "binned density": lambda: linkedkde.bin_samples(SAMPLE, 9, 2.0),
    "four-corners matrix": lambda: binned_solver.build_four_corners(5, 2.0),
    "spectral data": lambda: linkedkde.spectral_data(5, 2.0),
    "transforms": lambda: series_solver.empirical_transforms(SAMPLE, 8),
    "spectral fit": lambda: series_solver._SpectralFit.from_samples(SAMPLE, 2.0, 8),
}


@pytest.mark.parametrize("make", ARRAY_CONTAINERS.values(), ids=ARRAY_CONTAINERS)
def test_array_containers_compare_by_identity_and_hash(make):
    # == on the arrays they hold has no single truth value, so a container is equal only to itself
    first, second = make(), make()
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second, first}) == 2


def test_every_dataclass_holding_an_array_compares_by_identity():
    modules = (types, bandwidth, binned_solver, series_solver, experiments, targets)
    classes = [c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__]
    records = [c for c in classes if dataclasses.is_dataclass(c)]
    holding = [c for c in records if any(str(f.type).startswith("np.ndarray") for f in dataclasses.fields(c))]
    assert {c.__name__ for c in holding} >= {"SampleSet", "EvaluationGrid", "BinnedDensity", "SpectralData"}
    assert [c.__name__ for c in holding if c.__eq__ is not object.__eq__] == []
