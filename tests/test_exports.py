import lsslab


def test_all_has_no_duplicates():
    assert len(lsslab.__all__) == len(set(lsslab.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in lsslab.__all__ if not hasattr(lsslab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from lsslab import *", namespace)
    assert set(lsslab.__all__) <= set(namespace)
