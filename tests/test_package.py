"""The public namespace: every exported name resolves."""

import renflow


def test_all_names_resolve():
    missing = [name for name in renflow.__all__ if not hasattr(renflow, name)]
    assert missing == []
    assert len(set(renflow.__all__)) == len(renflow.__all__)


def test_star_import():
    namespace = {}
    exec("from renflow import *", namespace)
    assert set(renflow.__all__) <= set(namespace)
