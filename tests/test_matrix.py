import numpy as np
import pytest

from aqcc.errors import FieldMismatch
from aqcc.gf import FiniteField
from aqcc.matrix import MatrixGF, field_from_order, solve_left, vstack


@pytest.fixture(scope="module")
def gf7():
    return FiniteField.get(7, 1)


class TestBasics:
    def test_entry_validation(self, gf7):
        with pytest.raises(ValueError):
            MatrixGF(gf7, [[7, 0]])
        with pytest.raises(ValueError):
            MatrixGF(gf7, [1, 2, 3])

    def test_immutability(self, gf7):
        m = MatrixGF(gf7, [[1, 2]])
        with pytest.raises(ValueError):
            m.a[0, 0] = 3

    def test_equality_and_hash(self, gf7):
        a = MatrixGF(gf7, [[1, 2], [3, 4]])
        b = MatrixGF(gf7, [[1, 2], [3, 4]])
        assert a == b and hash(a) == hash(b)
        assert a != MatrixGF(gf7, [[1, 2], [3, 5]])
        assert a != MatrixGF(FiniteField.get(11, 1), [[1, 2], [3, 4]])

    def test_field_mismatch(self, gf7):
        a = MatrixGF(gf7, [[1]])
        b = MatrixGF(FiniteField.get(11, 1), [[1]])
        with pytest.raises(FieldMismatch):
            a @ b

    def test_field_from_order(self):
        assert field_from_order(16) == FiniteField.get(2, 4)
        assert field_from_order(11) == FiniteField.get(11, 1)
        assert field_from_order(121) == FiniteField.get(11, 2)
        with pytest.raises(ValueError):
            field_from_order(12)


class TestAlgebra:
    def test_matmul_known(self, gf7):
        a = MatrixGF(gf7, [[1, 2], [0, 3]])
        b = MatrixGF(gf7, [[4, 0], [5, 6]])
        # [[1*4+2*5, 2*6], [3*5, 3*6]] mod 7
        assert (a @ b) == MatrixGF(gf7, [[0, 5], [1, 4]])

    def test_identity(self, gf7):
        a = MatrixGF(gf7, [[1, 2], [3, 4]])
        assert MatrixGF.identity(gf7, 2) @ a == a
        assert a @ MatrixGF.identity(gf7, 2) == a

    def test_associativity_sampled(self):
        f = FiniteField.get(3, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = MatrixGF(f, rng.integers(0, 9, (3, 4)))
            b = MatrixGF(f, rng.integers(0, 9, (4, 2)))
            c = MatrixGF(f, rng.integers(0, 9, (2, 5)))
            assert (a @ b) @ c == a @ (b @ c)

    def test_add_sub_neg(self, gf7):
        a = MatrixGF(gf7, [[1, 6]])
        b = MatrixGF(gf7, [[3, 3]])
        assert a + b == MatrixGF(gf7, [[4, 2]])
        assert (a + b) - b == a
        assert a + (-a) == MatrixGF.zeros(gf7, 1, 2)


class TestReduction:
    def test_rref_known(self, gf7):
        m = MatrixGF(gf7, [[2, 4], [1, 2]])
        red, piv = m.rref()
        assert piv == (0,)
        assert red == MatrixGF(gf7, [[1, 2], [0, 0]])
        assert m.rank() == 1

    def test_rref_idempotent(self):
        f = FiniteField.get(2, 4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = MatrixGF(f, rng.integers(0, 16, (4, 6)))
            red, piv = m.rref()
            red2, piv2 = red.rref()
            assert red == red2 and piv == piv2

    def test_kernel_is_null_space(self):
        f = FiniteField.get(5, 1)
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = MatrixGF(f, rng.integers(0, 5, (3, 7)))
            ker = m.kernel()
            assert ker.rows == 7 - m.rank()
            assert (m @ ker.T).is_zero()
            assert ker.rank() == ker.rows

    def test_kernel_of_identity_empty(self, gf7):
        assert MatrixGF.identity(gf7, 3).kernel().rows == 0

    def test_remove_dependent_rows(self, gf7):
        m = MatrixGF(gf7, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])
        r = m.remove_dependent_rows()
        assert r == MatrixGF(gf7, [[1, 2, 3], [0, 1, 0]])
        assert m.independent_row_indices() == (0, 2)

    def test_rank_of_zero(self, gf7):
        assert MatrixGF.zeros(gf7, 2, 3).rank() == 0


class TestSolveLeft:
    def test_recovers_known_combination(self, gf7):
        a = MatrixGF(gf7, [[1, 0, 2], [0, 1, 3]])
        x_true = MatrixGF(gf7, [[2, 5], [1, 1]])
        b = x_true @ a
        x = solve_left(a, b)
        assert x is not None
        assert x @ a == b

    def test_detects_inconsistency(self, gf7):
        a = MatrixGF(gf7, [[1, 0, 0]])
        b = MatrixGF(gf7, [[0, 1, 0]])
        assert solve_left(a, b) is None

    def test_deterministic_witness(self):
        f = FiniteField.get(2, 2)
        a = MatrixGF(f, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # rank 2
        b = MatrixGF(f, [[1, 0, 1]])
        x1 = solve_left(a, b)
        x2 = solve_left(a, b)
        assert x1 == x2 and x1 @ a == b


class TestStackingAndText:
    def test_stacks(self, gf7):
        a = MatrixGF(gf7, [[1, 2]])
        b = MatrixGF(gf7, [[3, 4]])
        assert vstack([a, b]) == MatrixGF(gf7, [[1, 2], [3, 4]])
