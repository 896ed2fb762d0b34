"""The package namespace: every exported name resolves, once."""

import inspect
import os
import subprocess
import sys

import linkedkde


def test_every_exported_name_resolves_once():
    names = linkedkde.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(linkedkde, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from linkedkde import *", namespace)
    assert set(linkedkde.__all__) <= set(namespace)


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


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    code = (
        "import sys, linkedkde\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))"
    )
    src = os.path.dirname(os.path.dirname(linkedkde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"
