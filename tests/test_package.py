"""Public surface: every exported name resolves and star-import works."""
import trotterlab as tl


def test_all_names_resolve_and_star_import():
    missing = [name for name in tl.__all__ if not hasattr(tl, name)]
    assert missing == []
    namespace: dict = {}
    exec("from trotterlab import *", namespace)
    assert set(tl.__all__) <= set(namespace)
