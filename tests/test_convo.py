import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqcc.errors import (
    ContainmentFailed,
    PartitionInvalid,
    RankConditionViolated,
    RankDeficient,
)
from aqcc.convo import (
    DegreeInfo,
    PolyMatrix,
    constant_right_inverse,
    contains,
    degree_accounting,
    dual_generator,
    format_poly_matrix,
    is_basic,
    is_reduced,
    padd,
    parse_poly_matrix,
    pdeg,
    pdivmod,
    pmul,
    pscale,
    psub,
    ptrim,
    reduce,
    smith_form,
    split_to_generator,
)
from aqcc.gf import FiniteField
from aqcc.matrix import MatrixGF


def pshift(a, s):
    """Multiply the coefficient tuple a by D**s."""
    return (0,) * s + a if a else ()


@pytest.fixture(scope="module")
def gf3():
    return FiniteField.get(3, 1)


class TestPolyOps:
    def test_product_gf3(self, gf3):
        assert pmul(gf3, (1, 2), (2, 1)) == (2, 2, 2)

    def test_degree_sentinel(self):
        assert pdeg(()) == -1
        assert pdeg((0, 1)) == 1

    def test_addition_cancels(self, gf3):
        assert padd(gf3, (1, 2), (2, 1)) == ()

    def test_divmod(self, gf3):
        q, r = pdivmod(gf3, (2, 2, 2), (1, 2))
        assert q == (2, 1) and r == ()
        q, r = pdivmod(gf3, (1, 0, 1), (0, 1))
        assert q == (0, 1) and r == (1,)
        with pytest.raises(ZeroDivisionError):
            pdivmod(gf3, (1,), ())

    def test_shift_monic_eval(self, gf3):
        assert pshift((1, 2), 2) == (0, 0, 1, 2)
        assert pshift((), 3) == ()
        d2 = PolyMatrix(gf3, [[(0, 0, 1)]])
        assert (PolyMatrix(gf3, [[(1, 2), ()]]).T @ d2).e == ((pshift((1, 2), 2),), ((),))


class TestPolyMatrix:
    def test_coefficient_roundtrip(self, gf3):
        c0 = MatrixGF(gf3, [[1, 0], [2, 1]])
        c1 = MatrixGF(gf3, [[0, 1], [0, 0]])
        m = PolyMatrix.from_coefficients(gf3, [c0, c1])
        assert m.coefficient(0) == c0
        assert m.coefficient(1) == c1
        assert m.coefficient(5) == MatrixGF.zeros(gf3, 2, 2)
        assert m.max_degree == 1
        assert m.row_degrees == (1, 0)

    def test_matmul_against_hand_product(self, gf3):
        a = PolyMatrix(gf3, [[(1,), (0, 1)]])  # [1, D]
        b = PolyMatrix(gf3, [[(0, 1)], [(1,)]])  # [D, 1]^T
        assert a @ b == PolyMatrix(gf3, [[(0, 2)]])  # D + D = 2D

    def test_reverse(self, gf3):
        m = PolyMatrix(gf3, [[(0, 1), (1,)]])
        assert m.reverse() == PolyMatrix(gf3, [[(1,), (0, 1)]])
        rev2 = m.reverse(2)
        assert rev2.entry(0, 0) == (0, 1) and rev2.entry(0, 1) == (0, 0, 1)
        with pytest.raises(ValueError):
            PolyMatrix(gf3, [[(0, 0, 1)]]).reverse(1)

    def test_transpose_empty_shapes(self, gf3):
        z = PolyMatrix.zeros(gf3, 0, 3)
        assert z.T.shape == (3, 0)
        assert z.T.T.shape == (0, 3)

    def test_text_roundtrip_byte_identical(self, gf3):
        m = PolyMatrix(gf3, [[(1, 2), ()], [(0, 1), (2,)]])
        text = format_poly_matrix(m)
        assert text == "q=3\n(1,2) (0)\n(0,1) (2)"
        assert parse_poly_matrix(text) == m
        assert format_poly_matrix(parse_poly_matrix(text)) == text

    def test_leading_row_matrix(self, gf3):
        m = PolyMatrix(gf3, [[(1, 1), (0, 1)], [(1,), (2,)]])
        assert m.leading_row_matrix() == MatrixGF(gf3, [[1, 1], [1, 2]])


def assert_smith_invariants(m):
    sf = smith_form(m)
    f = m.field
    assert sf.u @ m @ sf.v == sf.s
    factors = sf.invariant_factors
    for p in factors:
        assert p[-1] == 1  # monic
    for a, b in zip(factors, factors[1:]):
        assert pdivmod(f, b, a)[1] == ()
    # off-diagonal must vanish
    for i in range(sf.s.rows):
        for j in range(sf.s.cols):
            if i != j:
                assert sf.s.entry(i, j) == ()
    return sf


class TestSmith:
    def test_single_row(self, gf3):
        sf = assert_smith_invariants(PolyMatrix(gf3, [[(1,), (0, 1)]]))
        assert sf.invariant_factors == ((1,),)

    def test_common_factor_detected(self):
        f = FiniteField.get(2, 1)
        sf = assert_smith_invariants(PolyMatrix(f, [[(0, 1), (0, 0, 1)]]))
        assert sf.invariant_factors == ((0, 1),)

    def test_triangular(self, gf3):
        m = PolyMatrix(gf3, [[(1,), (0, 1)], [(), (1, 1)]])
        sf = assert_smith_invariants(m)
        assert sf.invariant_factors == ((1,), (1, 1))

    def test_zero_matrix(self, gf3):
        sf = assert_smith_invariants(PolyMatrix.zeros(gf3, 2, 3))
        assert sf.invariant_factors == ()
        assert sf.rank == 0


@st.composite
def small_polymatrix(draw):
    q_choice = draw(st.sampled_from([(2, 1), (2, 2), (5, 1)]))
    field = FiniteField.get(*q_choice)
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    ent = [
        [
            tuple(draw(st.integers(0, field.q - 1)) for _ in range(draw(st.integers(0, 3))))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return PolyMatrix(field, ent)


@settings(max_examples=60, deadline=None)
@given(small_polymatrix())
def test_smith_invariants_random(m):
    assert_smith_invariants(m)


class TestBasic:
    def test_basic_examples(self, gf3):
        assert is_basic(PolyMatrix(gf3, [[(1,), (0, 1)]]))
        assert is_basic(PolyMatrix.identity(gf3, 2))
        f2 = FiniteField.get(2, 1)
        assert not is_basic(PolyMatrix(f2, [[(0, 1), (0, 0, 1)]]))

    def test_right_inverse(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1)]])
        r = constant_right_inverse(g)
        assert g @ r == PolyMatrix.identity(gf3, 1)
        assert r.shape == (2, 1)

    def test_right_inverse_rejects_catastrophic(self):
        f2 = FiniteField.get(2, 1)
        assert constant_right_inverse(PolyMatrix(f2, [[(0, 1), (0, 0, 1)]])) is None

    def test_right_inverse_rejects_rank_deficient(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1)], [(2,), (0, 2)]])
        assert not is_basic(g)
        assert constant_right_inverse(g) is None


class TestReduced:
    def test_detects_unreduced(self):
        f2 = FiniteField.get(2, 1)
        g = PolyMatrix(f2, [[(1, 1), (0, 1)], [(1,), (1,)]])
        assert not is_reduced(g)
        red = reduce(g)
        assert is_reduced(red)
        assert degree_accounting(red).gamma < degree_accounting(g).gamma
        # same module both ways
        contains(red, g)
        contains(g, red)

    def test_reduce_keeps_reduced_input(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1)], [(0, 1), (1,)]])
        assert is_reduced(g)
        assert reduce(g) == g

    def test_reduce_raises_on_rank_loss(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (2,)], [(2,), (1,)]])  # row1 = 2*row0
        with pytest.raises(RankDeficient):
            reduce(g)

    def test_degree_accounting(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1), (0, 0, 1)], [(0, 1), (1,), ()]])
        info = degree_accounting(g)
        assert info == DegreeInfo((2, 1), 3)
        with pytest.raises(RankDeficient):
            degree_accounting(PolyMatrix.zeros(gf3, 1, 2))


class TestDual:
    def test_dual_of_unit_delay_pair(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1)]])
        h = dual_generator(g)
        assert h.rows == 1
        # pairing: sum_t g_t . h_t over all relative shifts must vanish;
        # for row degree 1 that is c0.d0 + c1.d1 = 0 and the cross terms;
        # the Popov form scales [1, 2D] to a monic pivot
        assert h == PolyMatrix(gf3, [[(2,), (0, 1)]])

    def test_dual_respects_time_pairing(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1)]])
        h = dual_generator(g)
        mu = max(g.max_degree, h.max_degree)
        assert (g.reverse(mu) @ h.T).is_zero()
        assert (h.reverse(mu) @ g.T).is_zero()

    def test_rank_deficient_generator_is_refused(self, gf3):
        # rank 1: the kernel has n - 1 rows, more than the n - k a loop
        # that stops at n - k rows would return
        for g in (
            PolyMatrix(gf3, [[(1,), (0, 1)], [(0, 1), (0, 0, 1)]]),
            PolyMatrix(gf3, [[(1,), (0, 1), (2,)], [(0, 1), (0, 0, 1), (0, 2)]]),
        ):
            with pytest.raises(RankDeficient):
                dual_generator(g)

    def test_dual_of_full_rank_square_is_empty(self, gf3):
        h = dual_generator(PolyMatrix.identity(gf3, 2))
        assert h.shape == (0, 2)

    def test_double_dual_restores_module(self):
        f = FiniteField.get(2, 2)
        g = PolyMatrix(f, [[(1,), (0, 1), (1, 1)], [(), (2,), (0, 0, 1)]])
        assert is_basic(g)
        dd = dual_generator(dual_generator(g))
        contains(dd, g)
        contains(g, dd)

    def test_dual_dimensions_add_up(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (1,), (0, 1)], [(0, 1), (), (1,)]])
        h = dual_generator(g)
        assert h.rows == g.cols - g.rows
        assert is_basic(h) and is_reduced(h)


class TestContains:
    def test_multiple_is_contained(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1)]])
        inner = PolyMatrix(gf3, [[(0, 1), (0, 0, 1)]])  # D * g
        x = contains(g, inner)
        assert x @ g == inner
        assert x == PolyMatrix(gf3, [[(0, 1)]])

    def test_combination_of_rows(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (), (0, 1)], [(), (1,), (1,)]])
        x_true = PolyMatrix(gf3, [[(1, 1), (2,)]])
        inner = x_true @ g
        x = contains(g, inner)
        assert x @ g == inner

    def test_outside_module_fails(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1)]])
        with pytest.raises(ContainmentFailed):
            contains(g, PolyMatrix(gf3, [[(1,), (1,)]]))

    def test_divisibility_obstruction(self):
        f2 = FiniteField.get(2, 1)
        g = PolyMatrix(f2, [[(0, 1), (0, 1)]])  # D * [1, 1]
        with pytest.raises(ContainmentFailed):
            contains(g, PolyMatrix(f2, [[(1,), (1,)]]))


class TestSplit:
    def test_identity_partition(self):
        f = FiniteField.get(5, 1)
        eye = MatrixGF.identity(f, 4)
        g = split_to_generator([
            MatrixGF(f, eye.a[:2]),
            MatrixGF(f, eye.a[2:3]),
            MatrixGF(f, eye.a[3:4]),
        ])
        assert g == PolyMatrix(f, [
            [(1,), (), (0, 1), (0, 0, 1)],
            [(), (1,), (), ()],
        ])
        assert is_basic(g) and is_reduced(g)
        assert degree_accounting(g) == DegreeInfo((2, 0), 2)

    def test_placement_moves_partner_rows(self):
        f = FiniteField.get(5, 1)
        eye = MatrixGF.identity(f, 4)
        g = split_to_generator(
            [MatrixGF(f, eye.a[:2]), MatrixGF(f, eye.a[2:3])],
            placements=[(0, 1), (1,)],
        )
        assert g.entry(1, 2) == (0, 1)
        assert g.row_degrees == (0, 1)

    def test_oversized_block_rejected(self):
        f = FiniteField.get(5, 1)
        eye = MatrixGF.identity(f, 4)
        with pytest.raises(RankConditionViolated):
            split_to_generator([MatrixGF(f, eye.a[:1]), MatrixGF(f, eye.a[1:3])])

    def test_dependent_stack_rejected(self):
        f = FiniteField.get(5, 1)
        rows = MatrixGF(f, [[1, 2, 0], [2, 4, 0]])
        with pytest.raises(RankDeficient):
            split_to_generator([rows])

    def test_dependence_is_reported_before_layout_errors(self):
        # the rank check runs on G's stack, which only a valid layout has;
        # blocks that are both dependent and misplaced still raise RankDeficient
        f = FiniteField.get(5, 1)
        b0 = MatrixGF(f, [[1, 2, 0]])
        oversize = MatrixGF(f, [[2, 4, 0], [0, 1, 0]])  # 2 * b0 and a second row
        with pytest.raises(RankDeficient):
            split_to_generator([b0, oversize])
        with pytest.raises(RankDeficient):
            split_to_generator([b0, MatrixGF(f, [[3, 1, 0]]), MatrixGF(f, [[0, 1, 0]])],
                               placements=[(0,), (1,), (0,)])
        with pytest.raises(RankDeficient):
            split_to_generator([b0, b0], placements=[(0,)])
        with pytest.raises(RankConditionViolated):
            split_to_generator([b0, MatrixGF(f, [[0, 1, 0], [0, 0, 1]])])

    def test_generator_stack_keeps_the_independence_echelon(self):
        f = FiniteField.get(5, 1)
        eye = MatrixGF.identity(f, 4)
        g = split_to_generator([MatrixGF(f, eye.a[:2]), MatrixGF(f, eye.a[2:3])])
        assert g.stack is g.stack
        assert g.stack == MatrixGF(f, g.c.reshape(-1, g.cols))
        red, piv = g.stack.rref()
        assert g.stack.rref()[0] is red and piv == (0, 1, 2)

    def test_bad_placement_rejected(self):
        f = FiniteField.get(5, 1)
        eye = MatrixGF.identity(f, 4)
        with pytest.raises(PartitionInvalid):
            split_to_generator(
                [MatrixGF(f, eye.a[:2]), MatrixGF(f, eye.a[2:3])],
                placements=[(0, 1), (5,)],
            )
        with pytest.raises(PartitionInvalid):
            split_to_generator(
                [MatrixGF(f, eye.a[:2]), MatrixGF(f, eye.a[2:3])],
                placements=[(1, 0), (0,)],
            )


# --- tuple-grid references for the coefficient-array storage -------------
#
# Entry-by-entry arithmetic on grids of coefficient tuples, the plainest
# statement of each operation, kept as oracles for the array versions.


def tuple_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    f = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ()
            for t in range(a.cols):
                acc = padd(f, acc, pmul(f, a.e[i][t], b.e[t][j]))
            row.append(acc)
        out.append(row)
    return PolyMatrix(f, out, cols=b.cols)


def tuple_add(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    f = a.field
    return PolyMatrix(
        f, [[padd(f, x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.e, b.e)], cols=a.cols
    )


def tuple_sub(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    f = a.field
    return PolyMatrix(
        f, [[psub(f, x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.e, b.e)], cols=a.cols
    )


def tuple_transpose(m: PolyMatrix) -> PolyMatrix:
    if m.rows == 0 or m.cols == 0:
        return PolyMatrix.zeros(m.field, m.cols, m.rows)
    return PolyMatrix(m.field, list(zip(*m.e)))


def tuple_reverse(m: PolyMatrix, mu: int) -> PolyMatrix:
    out = []
    for row in m.e:
        new = []
        for p in row:
            padded = list(p) + [0] * (mu + 1 - len(p))
            new.append(ptrim(padded[::-1]))
        out.append(new)
    return PolyMatrix(m.field, out, cols=m.cols)


def tuple_row_degrees(m: PolyMatrix) -> tuple[int, ...]:
    return tuple(max((pdeg(p) for p in row), default=-1) for row in m.e)


def tuple_leading_row_matrix(m: PolyMatrix) -> MatrixGF:
    arr = np.zeros(m.shape, dtype=np.int32)
    for r, row in enumerate(m.e):
        d = max((pdeg(p) for p in row), default=-1)
        if d < 0:
            continue
        for c, p in enumerate(row):
            if pdeg(p) == d:
                arr[r, c] = p[-1]
    return MatrixGF(m.field, arr)


def tuple_reduce(m: PolyMatrix) -> PolyMatrix:
    f = m.field
    rows = [list(r) for r in m.e]

    def row_deg(r):
        return max((pdeg(p) for p in rows[r]), default=-1)

    while True:
        lead = np.zeros((len(rows), m.cols), dtype=np.int32)
        for r in range(len(rows)):
            d = row_deg(r)
            if d < 0:
                raise RankDeficient("zero row while reducing; input lost rank")
            for c, p in enumerate(rows[r]):
                if pdeg(p) == d:
                    lead[r, c] = p[-1]
        ker = MatrixGF(f, lead).T.kernel()
        if ker.rows == 0:
            return PolyMatrix(f, rows, cols=m.cols)
        coefs = ker.row(0)
        support = [r for r in range(len(rows)) if coefs[r]]
        j = max(support, key=lambda r: (row_deg(r), r))
        dj = row_deg(j)
        cj_inv = f.inv(int(coefs[j]))
        for r in support:
            if r == j:
                continue
            factor = f.mul(int(coefs[r]), cj_inv)
            shift = dj - row_deg(r)
            for c in range(m.cols):
                rows[j][c] = padd(f, rows[j][c], pshift(pscale(f, rows[r][c], factor), shift))


DIFF_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)]


def random_polymatrix(rng, field, rows, cols, depth, density=0.6):
    """Entries of degree < depth; each coefficient is nonzero with the given odds."""
    return PolyMatrix(field, [
        [
            tuple(rng.randrange(1, field.q) if rng.random() < density else 0
                  for _ in range(rng.randrange(depth + 1)))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ], cols=cols)


def diff_cases(seed):
    """(field, a, b, c) with a: r x m, b: m x n, c shaped like a, over every
    field of DIFF_FIELDS, including empty and all-zero shapes."""
    rng = random.Random(seed)
    out = []
    for pl in DIFF_FIELDS:
        f = FiniteField.get(*pl)
        shapes = [(0, 2, 3), (2, 0, 3), (2, 3, 0), (1, 1, 1), (2, 3, 2), (3, 2, 4)]
        shapes += [(rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 5))
                   for _ in range(4)]
        for r, m, n in shapes:
            depth = rng.randrange(0, 4)
            out.append((f,
                        random_polymatrix(rng, f, r, m, depth),
                        random_polymatrix(rng, f, m, n, rng.randrange(0, 4)),
                        random_polymatrix(rng, f, r, m, rng.randrange(0, 4))))
        out.append((f, PolyMatrix.zeros(f, 2, 3), PolyMatrix.zeros(f, 3, 2),
                    PolyMatrix.zeros(f, 2, 3)))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_array_arithmetic_matches_tuple_grid(seed):
    for f, a, b, c in diff_cases(seed):
        assert a @ b == tuple_matmul(a, b)
        assert a + c == tuple_add(a, c)
        assert a - c == tuple_sub(a, c)
        assert a.T == tuple_transpose(a)
        assert a.T.T == a
        mu = max(a.max_degree, 0)
        assert a.reverse() == tuple_reverse(a, mu)
        assert a.reverse(mu + 2) == tuple_reverse(a, mu + 2)
        assert a.row_degrees == tuple_row_degrees(a)
        assert a.leading_row_matrix() == tuple_leading_row_matrix(a)
        assert a.max_degree == max(a.row_degrees, default=-1)
        assert a.is_zero() == all(not p for row in a.e for p in row)


def test_product_with_a_zero_matrix_is_zero(gf3):
    a = PolyMatrix(gf3, [[(1, 2), (0, 1)]])
    z = PolyMatrix.zeros(gf3, 2, 3)
    assert (a @ z).is_zero() and (a @ z).shape == (1, 3) and (a @ z).max_degree == -1


@pytest.mark.parametrize("seed", range(4))
def test_array_reduce_matches_tuple_grid(seed):
    rng = random.Random(100 + seed)
    checked = 0
    for pl in DIFF_FIELDS:
        f = FiniteField.get(*pl)
        for _ in range(12):
            k = rng.randrange(0, 4)
            m = random_polymatrix(rng, f, k, k + rng.randrange(0, 3), rng.randrange(1, 4))
            try:
                want = tuple_reduce(m)
            except RankDeficient:
                with pytest.raises(RankDeficient):
                    reduce(m)
                continue
            assert reduce(m) == want
            checked += 1
    assert checked >= 20
