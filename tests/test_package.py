"""Package surface: every exported name resolves, and only once."""

import chaosmark


def test_all_names_resolve_without_duplicates():
    names = chaosmark.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(chaosmark, n)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from chaosmark import *", namespace)
    assert set(chaosmark.__all__) <= set(namespace)
