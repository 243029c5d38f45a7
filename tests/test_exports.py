"""The package's public names resolve, so a deleted function cannot leave
a stale entry in aqcc.__all__."""

import aqcc


def test_public_names_resolve():
    assert [name for name in aqcc.__all__ if not hasattr(aqcc, name)] == []
    ns = {}
    exec("from aqcc import *", ns)
    assert set(aqcc.__all__) <= ns.keys()
