import edgefed


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from edgefed import *", namespace)
    missing = [name for name in edgefed.__all__ if name not in namespace]
    assert missing == []
