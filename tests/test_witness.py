"""Differential tests: witness-first predicates and Smith-free duals
against the Smith-form path.

The plans come from the random construction-I generator behind the
split-plans selftest, with its default seed; the reference generators are
G1 and G2 of the 25 printed rows.
"""

import random

import numpy as np
import pytest

from aqcc import FamilyParams, convo, selftest
from aqcc.convo import (
    PolyMatrix,
    _membership_reduced,
    _membership_smith,
    constant_right_inverse,
    contains,
    dual_generator,
    format_poly_matrix,
    is_basic,
    is_reduced,
    pmul,
    reduce,
    smith_form,
)
from aqcc.errors import AqccError
from aqcc.families import layout
from aqcc.matrix import MatrixGF

PLAN_COUNT = 200


@pytest.fixture(scope="module")
def plans():
    rng = random.Random(20260817)
    return [selftest._random_plan(rng) for _ in range(PLAN_COUNT)]


@pytest.fixture(scope="module")
def reference_gens():
    return [
        g
        for family, q, kw in (row[:3] for row in selftest.REFERENCE_ROWS)
        for g in layout(FamilyParams(family, q, **kw)).generators()
    ]


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


def smith_dual(m: PolyMatrix) -> PolyMatrix:
    """The dual from the Smith form: the kernel columns of V for rev(m),
    transposed and reduced."""
    sf = smith_form(m.reverse())
    h = PolyMatrix.from_coefficients(m.field, sf.v.c[:, :, sf.rank :].transpose(0, 2, 1))
    return reduce(h) if h.rows else h


def assert_popov(h: PolyMatrix):
    """Monic pivots, rightmost at the row degree, in distinct columns; every
    other entry of a pivot column of lower degree; rows by (degree, pivot)."""
    degs = [len(p) - 1 for p in (max(row, key=len) for row in h.e)]
    pivots = [max(j for j, p in enumerate(row) if len(p) - 1 == d) for row, d in zip(h.e, degs)]
    assert len(set(pivots)) == len(pivots)
    assert list(zip(degs, pivots)) == sorted(zip(degs, pivots))
    for i, (d, j) in enumerate(zip(degs, pivots)):
        assert h.e[i][j][-1] == 1
        assert all(len(h.e[r][j]) - 1 < d for r in range(h.rows) if r != i)


def test_dual_agrees_with_smith(plans, reference_gens):
    gens = reference_gens + [g for plan in plans for g in plan.generators()]
    assert len(gens) == 50 + 2 * PLAN_COUNT
    for g in gens:
        h, want = dual_generator(g), smith_dual(g)
        assert h.rows == want.rows == g.cols - g.rows
        assert sorted(h.row_degrees) == sorted(want.row_degrees)
        contains(h, want)
        contains(want, h)
        assert is_reduced(h) and is_basic(h)
        assert (g.reverse() @ h.T).is_zero()
        assert_popov(h)


def random_unimodular(f, k: int, rng: random.Random) -> PolyMatrix:
    """Row permutation, nonzero row scales and three elementary row
    additions with polynomial multipliers."""
    perm = rng.sample(range(k), k)
    u = PolyMatrix(f, [[(1 + rng.randrange(f.q - 1),) if j == perm[i] else () for j in range(k)]
                       for i in range(k)])
    for _ in range(3 if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        e = [[(1,) if a == b else () for b in range(k)] for a in range(k)]
        e[i][j] = tuple(rng.randrange(f.q) for _ in range(rng.randint(1, 3)))
        u = PolyMatrix(f, e) @ u
    return u


def test_dual_is_the_same_for_every_generator(plans, reference_gens):
    rng = random.Random(3)
    gens = reference_gens + [g for plan in plans[:50] for g in plan.generators()]
    for g in gens:
        h = dual_generator(g)
        text = format_poly_matrix(h)
        k = g.rows
        perm = PolyMatrix.from_coefficients(g.field, [np.eye(k, dtype=np.int32)[::-1]])
        for u in (perm, random_unimodular(g.field, k, rng), random_unimodular(g.field, k, rng)):
            other = dual_generator(u @ g)
            assert other == h
            assert format_poly_matrix(other) == text
