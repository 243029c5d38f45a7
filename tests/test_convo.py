import hashlib
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
from aqcc import convo, matrix, selftest
from aqcc.convo import (
    PolyMatrix,
    block_toeplitz,
    contains,
    degree_gap,
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
    rank_poly,
    reduce,
    smith_form,
    split_to_generator,
)
from aqcc.css import build_nested_pair, derive_aqcc
from aqcc.families import FAMILIES, FamilyParams, enumerate_family, layout
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
    def test_repr(self, gf3):
        m = PolyMatrix(gf3, [[(1,), (0, 1)], [(1, 1), (2,)]])
        assert repr(m) == "PolyMatrix(GF(3), shape=(2, 2), max_degree=1)"

    def test_coefficient_roundtrip(self, gf3):
        c0 = MatrixGF(gf3, [[1, 0], [2, 1]])
        c1 = MatrixGF(gf3, [[0, 1], [0, 0]])
        m = PolyMatrix.from_coefficients(gf3, [c0, c1])
        assert m.coefficient(0) == c0
        assert m.coefficient(1) == c1
        assert m.coefficient(5) == MatrixGF.zeros(gf3, 2, 2)
        assert m.max_degree == 1
        assert m.row_degrees == (1, 0)

    def test_malformed_input_is_refused(self, gf3):
        with pytest.raises(ValueError, match="^ragged rows$"):
            PolyMatrix(gf3, [[(1,), (0, 1)], [(1,)]])
        with pytest.raises(ValueError, match="^declared column count does not match rows$"):
            PolyMatrix(gf3, [[(1,)]], cols=2)
        with pytest.raises(ValueError, match=r"^need a \(degree, rows, cols\) coefficient array$"):
            PolyMatrix.from_coefficients(gf3, [np.zeros(2, dtype=np.int32)])
        row, col = PolyMatrix(gf3, [[(1,), (0, 1)]]), PolyMatrix(gf3, [[(1,)], [(2,)]])
        with pytest.raises(ValueError, match=r"^shape mismatch \(1, 2\) vs \(2, 1\)$"):
            row + col
        with pytest.raises(ValueError, match=r"^shape mismatch \(1, 2\) @ \(1, 2\)$"):
            row @ row

    def test_matmul_against_hand_product(self, gf3):
        a = PolyMatrix(gf3, [[(1,), (0, 1)]])  # [1, D]
        b = PolyMatrix(gf3, [[(0, 1)], [(1,)]])  # [D, 1]^T
        assert a @ b == PolyMatrix(gf3, [[(0, 2)]])  # D + D = 2D

    def test_reverse(self, gf3):
        m = PolyMatrix(gf3, [[(0, 1), (1,)]])
        assert m.reverse() == PolyMatrix(gf3, [[(1,), (0, 1)]])
        rev2 = m.reverse(2)
        assert rev2.e[0][0] == (0, 1) and rev2.e[0][1] == (0, 0, 1)
        with pytest.raises(ValueError):
            PolyMatrix(gf3, [[(0, 0, 1)]]).reverse(1)

    def test_grid_refuses_what_int32_would_narrow(self):
        f = FiniteField.get(2, 4)
        for bad in ([[(1.9,)]], [[(1, 2.0)]], [[(-2**32 + 1,)]], [[(2**40,)]], [[(True,)]]):
            with pytest.raises(ValueError):
                PolyMatrix(f, bad)
        assert PolyMatrix(f, [[()]]) == PolyMatrix.zeros(f, 1, 1)
        assert PolyMatrix(f, [], cols=2).shape == (0, 2)

    def test_coefficients_refuse_what_int32_would_narrow(self):
        f = FiniteField.get(2, 4)
        for bad in (np.array([[[1.9]]]), [np.array([[1, 2.5]])], np.array([[[-2**32 + 1]]])):
            with pytest.raises(ValueError):
                PolyMatrix.from_coefficients(f, bad)
        empty = PolyMatrix.from_coefficients(f, np.zeros((1, 0, 2)))  # float, size 0
        assert empty.shape == (0, 2) and empty.c.dtype == np.int32

    def test_transpose_empty_shapes(self, gf3):
        z = PolyMatrix.zeros(gf3, 0, 3)
        assert z.T.shape == (3, 0)
        assert z.T.T.shape == (0, 3)

    def test_text_roundtrip_byte_identical(self, gf3):
        m = PolyMatrix(gf3, [[(1, 2), ()], [(0, 1), (2,)]])
        text = format_poly_matrix(m)
        assert text == "(1,2) (0)\n(0,1) (2)"
        parsed = parse_poly_matrix(f"q=3\n{text}")
        assert parsed == m and format_poly_matrix(parsed) == text

    @pytest.mark.parametrize("order", ["1_6", "+5", "\u0665"])  # the last is Arabic-Indic five
    def test_header_takes_ascii_digits_only(self, order):
        # the rule the entries follow; int() alone reads these as 16, 5, 5
        with pytest.raises(ValueError, match="line 1: bad header"):
            parse_poly_matrix(f"q={order}\n(1) (0,1)\n")

    def test_header_digits_may_be_padded(self):
        m = parse_poly_matrix("q= 5 \n(1) (0,1)\n")
        assert m.field.q == 5 and m.shape == (1, 2)

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
                assert sf.s.e[i][j] == ()
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

    def test_rank_poly(self, gf3):
        row = [(1,), (0, 1)]
        assert rank_poly(PolyMatrix(gf3, [row])) == 1
        assert rank_poly(PolyMatrix(gf3, [row, row])) == 1


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
        # [1, D] split from the rows e_0 and e_1 keeps its stack's right
        # inverse R_S, whose first column is a constant right inverse
        g = split_to_generator([MatrixGF(gf3, [[1, 0]]), MatrixGF(gf3, [[0, 1]])])
        assert g == PolyMatrix(gf3, [[(1,), (0, 1)]])
        r = PolyMatrix.from_coefficients(gf3, [g._right[:, :1]])
        assert g @ r == PolyMatrix.identity(gf3, 1)
        assert r.shape == (2, 1)
        assert degree_gap(g) == 0

    def test_right_inverse_rejects_catastrophic(self):
        # no split witness: the minimal dual records the gap, deg gcd(D, D^2)
        f2 = FiniteField.get(2, 1)
        g = PolyMatrix(f2, [[(0, 1), (0, 0, 1)]])
        assert g._right is None
        assert degree_gap(g) == 1 and not is_basic(g)

    def test_right_inverse_rejects_rank_deficient(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1)], [(2,), (0, 2)]])
        assert not is_basic(g)
        with pytest.raises(RankDeficient):
            degree_gap(g)
        with pytest.raises(RankDeficient):
            split_to_generator([MatrixGF(gf3, [[1, 0], [2, 0]])])

    def test_zero_columns_are_rank_deficient(self, gf3):
        m = PolyMatrix.zeros(gf3, 2, 0)
        assert m.stack.shape == (2, 0)
        assert not is_basic(m)
        with pytest.raises(RankDeficient):
            reduce(m)


class TestReduced:
    def test_detects_unreduced(self):
        f2 = FiniteField.get(2, 1)
        g = PolyMatrix(f2, [[(1, 1), (0, 1)], [(1,), (1,)]])
        assert not is_reduced(g)
        red = reduce(g)
        assert is_reduced(red)
        assert sum(red.row_degrees) < sum(g.row_degrees)
        # same module both ways
        contains(red, g)
        contains(g, red)

    def test_reduce_keeps_reduced_input(self, gf3, monkeypatch):
        g = PolyMatrix(gf3, [[(1,), (0, 1)], [(0, 1), (1,)]])
        assert is_reduced(g)
        # the input itself, with no unimodular transform built beside it
        monkeypatch.setattr(PolyMatrix, "identity", None)
        assert reduce(g) is g

    def test_reduce_raises_on_rank_loss(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (2,)], [(2,), (1,)]])  # row1 = 2*row0
        with pytest.raises(RankDeficient):
            reduce(g)

    def test_degree_accounting(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (0, 1), (0, 0, 1)], [(0, 1), (1,), ()]])
        assert g.row_degrees == (2, 1) and sum(g.row_degrees) == 3
        # a zero row has degree -1, and reduce, the rank test every
        # external degree is read after, refuses it
        zero = PolyMatrix.zeros(gf3, 1, 2)
        assert zero.row_degrees == (-1,)
        with pytest.raises(RankDeficient):
            reduce(zero)


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
        assert g.row_degrees == (2, 0)

    def test_placement_moves_partner_rows(self):
        f = FiniteField.get(5, 1)
        eye = MatrixGF.identity(f, 4)
        g = split_to_generator(
            [MatrixGF(f, eye.a[:2]), MatrixGF(f, eye.a[2:3])],
            placements=[(0, 1), (1,)],
        )
        assert g.e[1][2] == (0, 1)
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

    def test_blocks_of_different_lengths_rejected(self):
        f = FiniteField.get(5, 1)
        with pytest.raises(PartitionInvalid, match="^blocks must share the code length$"):
            split_to_generator([MatrixGF(f, [[1, 0, 0]]), MatrixGF(f, [[0, 1]])])


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
        coefs = ker.a[0]
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


# --- minimal duals against a fresh elimination at every degree ----------------


def kernel_by_degree(g: PolyMatrix, d: int) -> np.ndarray:
    """The kernel of the degree-d block-Toeplitz matrix of a reduced g,
    eliminated afresh."""
    band = g.reverse().T.c
    return MatrixGF._wrap(g.field, block_toeplitz(band, d + 1, len(band) + d)).T.kernel().a


def dual_by_degree(m: PolyMatrix) -> PolyMatrix:
    """Reference Popov dual: every block-Toeplitz kernel eliminated afresh,
    d = 0 included, and the Popov rows picked with np.isin."""
    f, n = m.field, m.cols
    g = reduce(m)
    extra = n - g.rows
    for d in range(sum(g.row_degrees) + 1):
        ker = kernel_by_degree(g, d)
        lead = ker.shape[1] - 1 - np.argmax(ker[:, ::-1] != 0, axis=1)
        popov = ker[~np.isin(lead - n, lead)]
        if len(popov) == extra:
            break
    return PolyMatrix._wrap(f, popov.reshape(extra, d + 1, n).transpose(1, 0, 2))


def split_generators(f: FiniteField, rng: random.Random) -> list:
    """G1 and G2 of every grid row over f, then of 40 random construction-I
    plans; each carries the stack right inverse of its split."""
    plans = [layout(p) for family in FAMILIES[1:] for p, _ in enumerate_family(family, f.q)]
    plans += [selftest._random_plan(rng, (f.q,)) for _ in range(40)]
    return [g for plan in plans for g in plan.generators()]


@pytest.mark.parametrize("pl", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (7, 1), (3, 2)])
def test_dual_matches_per_degree_elimination(pl):
    f = FiniteField.get(*pl)
    rng = random.Random(f.q)
    seen = {True: 0, False: 0}
    for trial in range(40):
        k = rng.randrange(1, 4)
        m = random_polymatrix(rng, f, k, k + rng.randrange(1, 4), rng.randrange(1, 4))
        if trial % 2 and k > 1 and is_reduced(m):
            # row j += D**s row r with s past deg row j - deg row r: the
            # same module, and both rows now lead with row r's leading row
            j, r = rng.sample(range(k), 2)
            degs = m.row_degrees
            s = degs[j] - degs[r] + 1 + rng.randrange(2)
            u = np.zeros((s + 1, k, k), dtype=np.int32)
            u[0] = np.eye(k, dtype=np.int32)
            u[s, j, r] = 1
            m = PolyMatrix.from_coefficients(f, u) @ m
        try:
            want = dual_by_degree(m)
        except RankDeficient:
            with pytest.raises(RankDeficient):
                dual_generator(m)
            continue
        reduced = is_reduced(m)
        if not reduced:
            # the dual then eliminates the stack of a fresh reduction
            g = reduce(m)
            assert g is not m and g != m and g.stack._echelon is None
        assert dual_generator(m) == want
        seen[reduced] += 1
    assert seen[True] >= 10 and seen[False] >= 8, seen
    # split generators: at every degree up to gamma, the kernel in closed
    # form, where it has no more rows than the block-Toeplitz matrix, and
    # the block-Toeplitz kernel elsewhere, against a fresh elimination
    routes = {True: 0, False: 0}
    for g in split_generators(f, rng):
        assert g._right is not None
        null = g.stack.kernel().a
        for d in range(1, sum(g.row_degrees) + 1):
            routes[convo._stack_kernel_basis(g, null, d) is not None] += 1
            assert np.array_equal(convo._dual_kernel(g, null, d), kernel_by_degree(g, d))
        assert dual_generator(g) == dual_by_degree(g)
    assert routes[True] and routes[False], routes


def test_dual_of_identity_matches_per_degree_elimination(gf3):
    g = PolyMatrix.identity(gf3, 3)
    assert dual_generator(g) == dual_by_degree(g)
    assert dual_generator(g).shape == (0, 3)


@pytest.mark.parametrize("split", [True, False])
@pytest.mark.parametrize("rows", [
    [[1, 0, 2, 1], [0, 1, 1, 2], [1, 1, 1, 0]],
    [[1, 0, 2, 1], [0, 1, 1, 2]],
    [[1, 2, 0]],
])
def test_degree_zero_dual_takes_the_same_two_routes(gf3, monkeypatch, rows, split):
    # gamma = 0, so the loop starts and stops at d = 0: a split generator
    # with k >= n - k builds the kernel of T_0 in closed form, and one with
    # k < n - k, whose T_0 has fewer rows, or an unsplit one eliminates T_0
    b = MatrixGF(gf3, rows)
    g = split_to_generator([b]) if split else PolyMatrix.from_coefficients(gf3, [b.a])
    routes = []
    basis = convo._stack_kernel_basis

    def recorded(g, null, d):
        out = basis(g, null, d)
        routes.append((d, out is not None))
        return out

    monkeypatch.setattr(convo, "_stack_kernel_basis", recorded)
    h = dual_generator(g)
    assert routes == [(0, split and b.rows >= b.cols - b.rows)]
    assert h.c.shape == (1, b.cols - b.rows, b.cols)
    assert np.array_equal(h.c[0], b.kernel().a)
    assert degree_gap(g) == 0


def test_dual_of_a_rate_half_encoder_reaches_degree_six():
    # the (171, 133) octal encoder of memory 6
    f = FiniteField.get(2, 1)
    g = PolyMatrix(f, [[(1, 1, 1, 1, 0, 0, 1), (1, 0, 1, 1, 0, 1, 1)]])
    h = dual_generator(g)
    assert h.max_degree == 6
    assert h == dual_by_degree(g)


def test_reference_duals_eliminate_once_each(monkeypatch):
    # G1's stack borrowed the source parity's echelon, so its dual reads
    # the stack's kernel from it; G2's stack, proved independent by the
    # parity's right inverse, is eliminated once, for its own dual.  Both duals
    # stop at degree 1, whose kernel has 2n columns.  G1 eliminates its
    # closed-form basis there, one row per kernel dimension, fewer than the
    # (mu + 2) * k rows of its block-Toeplitz matrix, and G2, with fewer
    # rows, that block-Toeplitz matrix; derive_aqcc builds H1 alone
    g1, g2 = layout(FamilyParams("II-T3a", 16, i=5, t=1)).generators()
    pair = build_nested_pair(g1, g2)
    toeplitz = [(len(g.c) + 1) * g.rows for g in (g1, g2)]
    dims = [len(kernel_by_degree(g, 1)) for g in (g1, g2)]
    eliminated = []
    rref = matrix._rref

    def counted(field, a):
        eliminated.append(np.shape(a))
        return rref(field, a)

    monkeypatch.setattr(matrix, "_rref", counted)
    stab = derive_aqcc(pair)
    assert eliminated == [(dims[0], 2 * pair.outer.cols)]
    assert dims[0] < toeplitz[0]
    assert stab.h1.max_degree == dual_generator(g2).max_degree == 1
    assert eliminated == [(dims[0], 2 * pair.outer.cols), g2.stack.shape, (toeplitz[1], 2 * pair.outer.cols)]
    assert toeplitz[1] < dims[1]


def test_high_degree_dual_starts_at_gamma_over_n_minus_k(gf16, monkeypatch):
    # a seeded GF(16) 4 x 8 encoder of degree 40, reduced and basic, so
    # gamma = 160 and its dual's largest row degree is at least 160 / 4:
    # the loop starts at d = 40, where the Popov rows are complete, and
    # eliminates L for R_L, the stack for its kernel and the one closed-form
    # kernel basis at d = 40, where a loop from d = 0 eliminated 42 times
    rng = np.random.default_rng(1)
    g = PolyMatrix.from_coefficients(gf16, rng.integers(0, 16, size=(41, 4, 8), dtype=np.int32))
    eliminated = []
    rref = matrix._rref

    def counted(field, a):
        eliminated.append(np.shape(a))
        return rref(field, a)

    monkeypatch.setattr(matrix, "_rref", counted)
    h = dual_generator(g)
    assert len(eliminated) == 3
    assert degree_gap(g) == 0 and sum(g.row_degrees) == sum(h.row_degrees) == 160
    # the bytes of the dual the loop from d = 0 builds
    assert h.c.shape == (41, 4, 8)
    assert hashlib.sha256(h.c.tobytes()).hexdigest() == (
        "9b7de5208f694160de659d4b91f4163c9c2852d5bc55c29e8d5c22629fa2b491")


class TestDualChecks:
    """A doctored kernel trips each of dual_generator's two checks."""

    @pytest.fixture(params=["unit-delay", "split"])
    def g(self, request, gf3):
        if request.param == "unit-delay":
            return PolyMatrix(gf3, [[(1,), (0, 1)]])
        return layout(FamilyParams("II-T3a", 16, i=5, t=1)).generators()[0]

    def test_a_dropped_kernel_row_leaves_the_basis_incomplete(self, g, monkeypatch):
        # the first row goes with every row that leads in its column, its
        # shifts among them, which would take its place as a Popov row
        kernel = convo._dual_kernel

        def dropped(g, null, d):
            ker = kernel(g, null, d)
            lead = (ker.shape[1] - 1 - np.argmax(ker[:, ::-1] != 0, axis=1)) % g.cols
            return ker[lead != lead[0]]

        monkeypatch.setattr(convo, "_dual_kernel", dropped)
        with pytest.raises(AssertionError, match="^dual basis incomplete at the degree bound$"):
            dual_generator(g)

    def test_a_flipped_kernel_entry_leaves_a_residual(self, g, monkeypatch):
        kernel = convo._dual_kernel

        def flipped(g, null, d):
            ker = kernel(g, null, d).copy()
            ker[0, 0] = g.field.add(int(ker[0, 0]), 1)
            return ker

        monkeypatch.setattr(convo, "_dual_kernel", flipped)
        with pytest.raises(AssertionError, match="^dual residual is nonzero$"):
            dual_generator(g)


def test_a_dual_missing_one_row_is_refused_by_its_external_degree(monkeypatch):
    # dropping only the first kernel row of II-T3a q=16 G1 lets its shift
    # take its place: the rows lie in the dual and lead in every column,
    # but their external degree is 5 against gamma 4, so they do not span
    # the dual; the split G1 records gap 0, a fresh copy records none
    g1 = layout(FamilyParams("II-T3a", 16, i=5, t=1)).generators()[0]
    copy = PolyMatrix.from_coefficients(g1.field, g1.c)
    kernel = convo._dual_kernel
    monkeypatch.setattr(convo, "_dual_kernel", lambda g, null, d: kernel(g, null, d)[1:])
    with pytest.raises(AssertionError, match="^dual external degree 5 against gamma 4, gap 0$"):
        dual_generator(g1)
    with pytest.raises(AssertionError, match="^dual external degree 5 against gamma 4, gap None$"):
        dual_generator(copy)
    assert copy._gap is None


# --- matrix text against one string per entry ---------------------------------


def format_per_entry(m: PolyMatrix) -> str:
    """Reference text built with one Python string per entry."""
    lines = []
    live = m.c[::-1] != 0
    ends = np.where(live.any(axis=0), len(m.c) - live.argmax(axis=0), 0).tolist()
    for row, row_ends in zip(m.c.transpose(1, 2, 0).tolist(), ends):
        lines.append(" ".join(
            "(" + ",".join(map(str, p[:end])) + ")" if end else "(0)"
            for p, end in zip(row, row_ends)
        ))
    return "\n".join(lines)


@pytest.mark.parametrize("pl", [(2, 1), (11, 1), (2, 5), (2, 11)])
def test_text_matches_per_entry_format(pl):
    f = FiniteField.get(*pl)
    rng = random.Random(f.q)
    cases = [PolyMatrix.zeros(f, 2, 3), PolyMatrix.zeros(f, 0, 3), PolyMatrix.zeros(f, 2, 0)]
    cases += [random_polymatrix(rng, f, rng.randrange(1, 5), rng.randrange(1, 6), rng.randrange(1, 5))
              for _ in range(20)]
    if f.q > 3:
        top = f.q - 1
        cases.append(PolyMatrix(f, [[(0, 3), (1, 0, 2), ()], [(top,), (), (0, 0, 0, top)]]))
        assert format_poly_matrix(cases[-1]) == f"(0,3) (1,0,2) (0)\n({top}) (0) (0,0,0,{top})"
    for m in cases:
        assert format_poly_matrix(m) == format_per_entry(m)
        if m.rows and m.cols:
            assert parse_poly_matrix(f"q={f.q}\n{format_poly_matrix(m)}") == m
