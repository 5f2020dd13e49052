"""The package's public surface: every exported name resolves, and once."""
import remvqe


def test_all_names_resolve_once():
    names = remvqe.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(remvqe, name)] == []
    namespace: dict = {}
    exec("from remvqe import *", namespace)
    assert set(names) <= set(namespace)
