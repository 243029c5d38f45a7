"""Differential tests: witness-first predicates against the Smith-form path.

The plans come from the random construction-I generator behind the
split-plans selftest, with its default seed.
"""

import random

import pytest

from aqcc import convo, selftest
from aqcc.convo import (
    PolyMatrix,
    _membership_reduced,
    _membership_smith,
    constant_right_inverse,
    is_basic,
    is_reduced,
    pmul,
    smith_form,
)
from aqcc.errors import AqccError
from aqcc.matrix import MatrixGF

PLAN_COUNT = 200


@pytest.fixture(scope="module")
def plans():
    rng = random.Random(20260817)
    return [selftest._random_plan(rng) for _ in range(PLAN_COUNT)]


def smith_is_basic(m: PolyMatrix) -> bool:
    sf = smith_form(m)
    return sf.rank == m.rows and all(p == (1,) for p in sf.invariant_factors)


def mutate_constant(m: PolyMatrix, rng: random.Random) -> PolyMatrix:
    """Add a nonzero constant to one entry."""
    f = m.field
    entries = [list(row) for row in m.e]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    p = entries[r][c]
    head = f.add(p[0] if p else 0, 1 + rng.randrange(f.q - 1))
    entries[r][c] = (head,) + tuple(p[1:])
    return PolyMatrix(f, entries, cols=m.cols)


def times_one_plus_d(m: PolyMatrix) -> PolyMatrix:
    """Multiply row 0 by 1 + D, which makes the matrix catastrophic."""
    entries = [list(row) for row in m.e]
    entries[0] = [pmul(m.field, (1, 1), p) for p in entries[0]]
    return PolyMatrix(m.field, entries, cols=m.cols)


def membership(fn, outer, inner):
    try:
        return fn(outer, inner)
    except AqccError as exc:
        return type(exc)


def test_is_basic_agrees_with_smith(plans):
    rng = random.Random(1)
    witnessed = 0
    for plan in plans:
        for g in plan.generators():
            for m in (g, mutate_constant(g, rng), times_one_plus_d(g)):
                want = smith_is_basic(m)
                assert is_basic(m) == want
                r = constant_right_inverse(m)
                if r is not None:
                    assert want
                    assert m @ r == PolyMatrix.identity(m.field, m.rows)
                    witnessed += 1
    # every split generator has a constant right inverse
    assert witnessed >= 2 * PLAN_COUNT


def test_mutated_right_inverse_is_rejected(plans, monkeypatch):
    solve = convo.solve_left

    def first_column_zeroed(a, b):
        x = solve(a, b)
        if x is None:
            return None
        bad = x.a.copy()
        bad[0] = 0  # row 0 of the solution is column 0 of R
        return MatrixGF(x.field, bad)

    monkeypatch.setattr(convo, "solve_left", first_column_zeroed)
    for plan in plans[:10]:
        for g in plan.generators():
            with pytest.raises(AssertionError, match="right inverse witness failed"):
                constant_right_inverse(g)


def test_containment_agrees_with_smith(plans):
    rng = random.Random(2)
    failed = 0
    for plan in plans:
        g1, g2 = plan.generators()
        assert is_reduced(g1)
        for inner in (g2, mutate_constant(g2, rng)):
            fast = membership(_membership_reduced, g1, inner)
            slow = membership(_membership_smith, g1, inner)
            assert fast == slow
            if isinstance(fast, PolyMatrix):
                assert fast @ g1 == inner
            else:
                failed += 1
        assert isinstance(membership(_membership_reduced, g1, g2), PolyMatrix)
    assert failed > PLAN_COUNT // 2  # the mutations mostly leave the module
