"""The package's public surface: every exported name exists, once."""

import irsvlc


def test_every_exported_name_resolves():
    missing = [name for name in irsvlc.__all__ if not hasattr(irsvlc, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(irsvlc.__all__) == len(set(irsvlc.__all__))


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from irsvlc import *", namespace)
    assert set(irsvlc.__all__) <= set(namespace)
