"""Helpers that several test modules share: the tuple-grid difference of
two polynomial matrices, a shift of one coefficient tuple, a designed
distance bound, and call counters that rebind a function under every name
the aqcc package binds it to.
"""

import sys

from aqcc.block import DistanceBound
from aqcc.convo import PolyMatrix, psub


def pshift(a, s):
    """Multiply the coefficient tuple a by D**s."""
    return (0,) * s + a if a else ()


def tuple_sub(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """a - b entry by entry on grids of coefficient tuples."""
    f = a.field
    return PolyMatrix(
        f, [[psub(f, x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.e, b.e)], cols=a.cols
    )


def designed(lower: int) -> DistanceBound:
    return DistanceBound(lower, None, "designed", "designed")


def aqcc_bindings(fn):
    """Every (module, name) of the aqcc package that binds fn."""
    return [
        (mod, name)
        for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "aqcc"
        for name, value in list(vars(mod).items()) if value is fn
    ]


def count_calls(monkeypatch, fns) -> dict:
    """Count calls to each function of fns, by its name, under every aqcc
    binding."""
    calls = dict.fromkeys((fn.__name__ for fn in fns), 0)
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for mod, attr in aqcc_bindings(fn):
            monkeypatch.setattr(mod, attr, counted)
    return calls
