"""The package namespace: every exported name resolves, once."""

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
