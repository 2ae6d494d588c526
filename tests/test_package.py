import dmtrack


def test_every_export_resolves_and_star_import_succeeds():
    """A stale name in __all__ fails here rather than at a user's import."""
    assert len(set(dmtrack.__all__)) == len(dmtrack.__all__)
    missing = [name for name in dmtrack.__all__ if not hasattr(dmtrack, name)]
    assert not missing
    namespace = {}
    exec("from dmtrack import *", namespace)
    assert set(dmtrack.__all__) <= set(namespace)
