import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import field_reference as ref
from aqcc import gf
from aqcc.errors import (
    FieldMismatch,
    NonPrimeCharacteristic,
    NotCoprime,
    OrderNotDividing,
)
from aqcc.gf import (
    FiniteField,
    SubfieldBasis,
    default_modulus,
    embedding,
    field_order,
    multiplicative_order,
    poly_is_irreducible,
    prime_factors,
)
from aqcc.matrix import field_from_order


def packed(coeffs, p):
    return sum(c * p ** i for i, c in enumerate(coeffs))


def order_of(field, a) -> int:
    """Multiplicative order of a nonzero element, by repeated products."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative order")
    m, x = 1, a
    while x != 1:
        m, x = m + 1, field.mul(x, a)
    return m


class TestModulusSelection:
    def test_canonical_moduli(self):
        # frozen: smallest packed-index monic irreducible per degree
        assert default_modulus(2, 1) == (0, 1)
        assert default_modulus(2, 2) == (1, 1, 1)
        assert default_modulus(2, 3) == (1, 1, 0, 1)
        assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
        assert default_modulus(3, 2) == (1, 0, 1)
        assert packed(default_modulus(2, 8), 2) == 283
        assert packed(default_modulus(2, 10), 2) == 1033

    @pytest.mark.parametrize("p,l", [(2, 4), (2, 8), (3, 2), (3, 3), (5, 2), (11, 2)])
    def test_default_modulus_agrees_with_sympy(self, p, l):
        mod = default_modulus(p, l)
        x = sympy.symbols("x")
        poly = sympy.Poly(list(reversed(mod)), x, modulus=p)
        assert sympy.factor_list(poly.as_expr(), modulus=p)[1][0][1] == 1
        assert poly.degree() == l
        # nothing smaller is irreducible
        for m in range(p ** l, packed(mod, p)):
            cand = [(m // p ** i) % p for i in range(l + 1)]
            assert not poly_is_irreducible(tuple(cand), p)

    def test_irreducibility_by_trial_division(self):
        assert poly_is_irreducible((1, 1, 1), 2)
        assert not poly_is_irreducible((1, 0, 0, 0, 1), 2)  # (x+1)**4
        assert not poly_is_irreducible((1,), 2)
        assert poly_is_irreducible((1, 0, 1), 3)
        assert not poly_is_irreducible((2, 0, 1), 3)  # x**2 - 1


class TestConstruction:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(NonPrimeCharacteristic):
            FiniteField(4)
        with pytest.raises(NonPrimeCharacteristic):
            FiniteField(15, 1)

    def test_rejects_zero_extension_degree(self):
        with pytest.raises(ValueError, match=r"^extension degree must be >= 1$"):
            FiniteField(2, 0)

    def test_get_shares_instances(self, gf16):
        assert FiniteField.get(2, 4) is gf16
        assert FiniteField(2, 4) == gf16
        assert hash(FiniteField(2, 4)) == hash(gf16)


def exhaustive_axioms(field):
    q = field.q
    a = np.arange(q).reshape(-1, 1, 1)
    b = np.arange(q).reshape(1, -1, 1)
    c = np.arange(q).reshape(1, 1, -1)
    assert np.array_equal(field.add(a, b), field.add(b, a))
    assert np.array_equal(field.mul(a, b), field.mul(b, a))
    assert np.array_equal(field.add(field.add(a, b), c), field.add(a, field.add(b, c)))
    assert np.array_equal(field.mul(field.mul(a, b), c), field.mul(a, field.mul(b, c)))
    assert np.array_equal(
        field.mul(a, field.add(b, c)),
        field.add(field.mul(a, b), field.mul(a, c)),
    )
    nz = np.arange(1, q)
    assert np.array_equal(field.mul(nz, field.inv(nz)), np.ones(q - 1, dtype=np.int32))
    assert np.array_equal(field.add(np.arange(q), field.neg(np.arange(q))), np.zeros(q, dtype=np.int32))


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (17, 1)])
def test_field_axioms_exhaustive(p, l):
    exhaustive_axioms(FiniteField.get(p, l))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_gf256_axioms_sampled(a, b, c):
    f = FiniteField.get(2, 8)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    if a:
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 1023), st.integers(0, 1023))
def test_gf1024_products_match_raw_polynomials(a, b):
    f = FiniteField.get(2, 10)
    assert f.mul(a, b) == f._mul_raw(a, b)
    assert f.add(a, b) == a ^ b


class TestGeneratorAndLogs:
    def test_known_generators(self, gf11):
        assert gf11.generator == 2
        assert FiniteField.get(3, 2).generator == 4  # x + 1 mod x**2 + 1
        for q, g in ((256, 3), (512, 7), (625, 6), (1331, 11), (43 ** 2, 45)):
            assert FiniteField(*field_order(q)).generator == g, q
        # the rule: the least element of order q - 1, whose powers are exp
        for q in (q for q in range(2, 65) if len(prime_factors(q)) == 1):
            f = field_from_order(q)
            assert f.generator == next(a for a in range(1, q) if order_of(f, a) == q - 1), q
            for i in range(q - 1):
                assert f.exp(i + 1) == f._mul_raw(f.exp(i), f.generator), (q, i)

    def test_generator_walk_skips_powers_of_earlier_candidates(self, monkeypatch):
        # a power of a walked candidate has order below q - 1, so the walk
        # passes over it, and the generators stay those pinned above
        walked = []
        mul_raw = FiniteField._mul_raw

        def spy(self, a, b):
            if not walked or walked[-1] != b:
                walked.append(b)
            return mul_raw(self, a, b)

        monkeypatch.setattr(FiniteField, "_mul_raw", spy)
        for q, g in ((11, 2), (9, 4), (256, 3), (512, 7), (625, 6), (1331, 11), (43 ** 2, 45)):
            walked.clear()
            f = FiniteField(*field_order(q))
            assert f.generator == walked[-1] == g, q
            powers = {1}
            for c in range(2, g + 1):
                assert (c in walked) == (c not in powers), (q, c)
                cur = c
                while cur != 1:
                    powers.add(cur)
                    cur = f.mul(cur, c)

    def test_exp_log_roundtrip(self, gf16):
        # exp walks every nonzero element once, so it has an inverse, log
        log = {gf16.exp(i): i for i in range(15)}
        assert sorted(log) == list(range(1, 16))
        assert log[1] == 0
        assert gf16.exp(15) == 1
        assert gf16.exp(-1) == gf16.inv(gf16.generator)

    def test_order_of(self, gf16):
        assert order_of(gf16, 1) == 1
        assert order_of(gf16, gf16.generator) == 15
        orders = sorted({order_of(gf16, a) for a in range(1, 16)})
        assert orders == [1, 3, 5, 15]

    def test_pow(self, gf16):
        g = gf16.generator
        assert gf16.pow(g, 15) == 1
        assert gf16.pow(g, -1) == gf16.inv(g)
        assert gf16.pow(0, 0) == 1
        assert gf16.pow(0, 3) == 0
        with pytest.raises(ZeroDivisionError):
            gf16.pow(0, -2)
        for bad in (-1, 16, 2.5):  # the range gate of the other public ops
            with pytest.raises(IndexError):
                gf16.pow(bad, 2)


class TestOrders:
    def test_multiplicative_order_values(self):
        assert multiplicative_order(16, 17) == 2
        assert multiplicative_order(32, 33) == 2
        assert multiplicative_order(11, 10) == 1
        assert multiplicative_order(9, 10) == 2
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(5, 1) == 1

    def test_multiplicative_order_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError, match=r"^n must be positive$"):
            multiplicative_order(2, 0)

    def test_multiplicative_order_rejects_shared_factor(self):
        with pytest.raises(NotCoprime):
            multiplicative_order(9, 3)

    def test_root_of_unity(self, gf16):
        z = gf16.root_of_unity(5)
        assert order_of(gf16, z) == 5
        assert gf16.root_of_unity(1) == 1
        with pytest.raises(OrderNotDividing):
            gf16.root_of_unity(7)

    def test_root_of_unity_powers_distinct(self, gf11):
        z = gf11.root_of_unity(10)
        powers = {gf11.pow(z, i) for i in range(10)}
        assert len(powers) == 10


class TestEmbedding:
    def test_requires_compatible_fields(self):
        with pytest.raises(FieldMismatch):
            embedding(FiniteField.get(2, 2), FiniteField.get(2, 3))
        with pytest.raises(FieldMismatch):
            embedding(FiniteField.get(3, 1), FiniteField.get(2, 4))

    @pytest.mark.parametrize("a,b", [(1, 4), (2, 4), (1, 2), (4, 8), (2, 8), (1, 10), (5, 10)])
    def test_is_field_homomorphism(self, a, b):
        sub = FiniteField.get(2, a)
        ext = FiniteField.get(2, b)
        t = embedding(sub, ext)
        x = np.arange(sub.q).reshape(-1, 1)
        y = np.arange(sub.q).reshape(1, -1)
        assert np.array_equal(t[sub.add(x, y)], ext.add(t[x], t[y]))
        assert np.array_equal(t[sub.mul(x, y)], ext.mul(t[x], t[y]))
        assert t[0] == 0 and t[1] == 1
        assert len(set(t.tolist())) == sub.q

    def test_image_is_frobenius_fixed_field(self, gf16, gf256):
        t = embedding(gf16, gf256)
        fixed = {a for a in range(256) if gf256.pow(a, 16) == a}
        assert set(t.tolist()) == fixed

    def test_odd_characteristic(self):
        sub = FiniteField.get(3, 1)
        ext = FiniteField.get(3, 2)
        t = embedding(sub, ext)
        assert t.tolist() == [0, 1, 2]

    def test_prime_subfield_of_gf81(self):
        sub = FiniteField.get(3, 2)
        ext = FiniteField.get(3, 4)
        t = embedding(sub, ext)
        x = np.arange(9).reshape(-1, 1)
        y = np.arange(9).reshape(1, -1)
        assert np.array_equal(t[sub.mul(x, y)], ext.mul(t[x], t[y]))


def combine(basis, coords) -> int:
    """sum_i emb(c_i) * x**i, where the canonical root x of an extension
    field has the packed index p."""
    ext = basis.ext
    emb = embedding(basis.sub, ext)
    out, x_i = 0, 1
    for c in coords:
        out = ext.add(out, ext.mul(int(emb[c]), x_i))
        x_i = ext.mul(x_i, ext.p)
    return out


class TestSubfieldBasis:
    def test_roundtrip_gf256_over_gf16(self, gf16, gf256):
        basis = SubfieldBasis(gf16, gf256)
        assert basis.L == 2
        coords = basis.expand_array(np.arange(256))
        assert coords.shape == (256, 2)
        for e in range(256):
            assert combine(basis, coords[e]) == e

    def test_expand_is_subfield_linear(self, gf16, gf256):
        basis = SubfieldBasis(gf16, gf256)
        emb = embedding(gf16, gf256)
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.integers(0, 256, 2)
            c = int(rng.integers(0, 16))
            ea = basis.expand_array(a)
            eb = basis.expand_array(b)
            assert np.array_equal(basis.expand_array(gf256.add(int(a), int(b))), gf16.add(ea, eb))
            scaled = gf256.mul(int(emb[c]), int(a))
            assert np.array_equal(basis.expand_array(scaled), gf16.mul(c, ea))

    def test_expand_array_matches_scalar(self, gf16, gf256):
        basis = SubfieldBasis(gf16, gf256)
        arr = np.arange(256).reshape(16, 16)
        out = basis.expand_array(arr)
        assert out.shape == (16, 16, 2)
        assert out[3, 5].tolist() == basis.expand_array(3 * 16 + 5).tolist()

    def test_trivial_basis(self, gf16):
        basis = SubfieldBasis(gf16, gf16)
        assert basis.L == 1
        assert basis.expand_array(9).tolist() == [9]

    def test_gf1024_over_gf32(self):
        sub = FiniteField.get(2, 5)
        ext = FiniteField.get(2, 10)
        basis = SubfieldBasis(sub, ext)
        assert basis.L == 2
        for e in (0, 1, 2, 500, 1023):
            assert combine(basis, basis.expand_array(e)) == e


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(15) == [3, 5]
    assert prime_factors(1024) == [2]
    assert prime_factors(255) == [3, 5, 17]


def _reference_field_order(q):
    """(p, l) by the smallest divisor and repeated division, or None."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    l = 0
    while q % p == 0:
        q //= p
        l += 1
    return (p, l) if q == 1 else None


def test_field_order_matches_reference(deadline):
    # orders past the table size are refused unfactored; the next test covers them
    for q in range(-2, 2049):
        want = _reference_field_order(q)
        if want is None:
            with pytest.raises(ValueError, match="not a prime power"):
                field_order(q)
        else:
            assert field_order(q) == want


def test_field_order_refuses_past_the_table_size(deadline):
    assert field_order(2048) == (2, 11)
    with pytest.raises(ValueError, match="not a prime power"):
        field_order(12)
    # refused before factoring: 2**61 - 1 is prime, and its trial division
    # would run far past the guard
    for q in (2049, (1 << 61) - 1):
        with pytest.raises(ValueError, match="table size"):
            field_order(q)
    with pytest.raises(ValueError, match="table size"):
        FiniteField(2, 12)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 17, 25, 27, 32])
def test_int_path_matches_tables_exhaustive(q):
    # plain ints take the list/XOR/mod path, arrays the numpy tables
    f = field_from_order(q)
    elems = np.arange(q)
    a, b = np.meshgrid(elems, elems, indexing="ij")
    nz = np.arange(1, q)
    an, bn = np.meshgrid(elems, nz, indexing="ij")
    for op, x, y in (("add", a, b), ("sub", a, b), ("mul", a, b), ("div", an, bn)):
        fn = getattr(f, op)
        scalar = [[fn(int(u), int(v)) for u, v in zip(ru, rv)] for ru, rv in zip(x, y)]
        assert np.array_equal(np.array(scalar), fn(x, y)), op
        assert type(scalar[-1][-1]) is int
    assert [f.neg(int(u)) for u in elems] == f.neg(elems).tolist()
    assert [f.inv(int(u)) for u in nz] == f.inv(nz).tolist()
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(1, 0)


def test_non_int_operands_keep_the_numpy_path(gf16):
    assert gf16.mul(np.int64(3), 7) == gf16.mul(3, 7)
    with pytest.raises(IndexError):
        gf16.add(-1, 0)
    with pytest.raises(IndexError):
        gf16.add(16, 0)
    with pytest.raises(ZeroDivisionError):
        gf16.inv(np.int64(0))


@pytest.mark.parametrize("q", [2, 16, 7, 9])
def test_out_of_range_operands_raise(q):
    f = field_from_order(q)
    for bad in (-1, q):
        for form in (int, np.int64, lambda v: np.array([1, v, 1])):
            x = form(bad)
            for op, args in (
                ("add", (x, 1)), ("add", (1, x)), ("sub", (x, 1)), ("sub", (1, x)),
                ("mul", (x, 1)), ("mul", (1, x)), ("div", (x, 1)), ("div", (1, x)),
                ("neg", (x,)), ("inv", (x,)), ("pow", (x, 2)),
            ):
                with pytest.raises(IndexError):
                    getattr(f, op)(*args)


@pytest.mark.parametrize("q", [2, 32, 17, 2039, 9, 25, 27])
def test_array_kernels_match_reference_arithmetic(q):
    # the kernels against table-free reference arithmetic (field_reference)
    f = field_from_order(q)
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, (7, 9)).astype(np.int32)
    b = rng.integers(0, q, (7, 9)).astype(np.int32)
    col = rng.integers(0, q, (7, 1)).astype(np.int32)
    c = rng.integers(0, q, (9, 5)).astype(np.int32)
    cases = (
        (f._vadd(a, b), ref.add(f, a, b)),
        (f._vsub(a, b), ref.sub(f, a, b)),
        (f._vneg(a), ref.neg(f, a)),
        (f._vinv(a[a != 0]), ref.inv(f, a[a != 0])),
        (f._vmul(a, b), ref.mul(f, a, b)),
        (f._vmul(col, b[0]), ref.mul(f, col, b[0])),  # broadcast outer product
        (f._vmul(int(b[1, 2]), a), ref.mul(f, int(b[1, 2]), a)),  # scalar times array
        (f._vmatmul(a, c), ref.matmul(f, a, c)),
        (f._vmatmul(a[:, :0], c[:0]), np.zeros((7, 5), dtype=np.int32)),
    )
    for got, want in cases:
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


@pytest.mark.parametrize("q", [2, 7, 9, 16, 1024])
def test_powers_match_repeated_products(q):
    # a**j for j < n by the table-free polynomial product, one factor at a
    # time; n runs past q, over powers of two and the lengths between them
    f = field_from_order(q)
    for a in sorted({0, 1, f.generator, q - 1}):
        want = [1]
        for _ in range(max(33, q + 3)):
            want.append(f._mul_raw(want[-1], a))
        for n in (0, 1, 2, 3, 4, 5, 8, 33, q + 3):
            got = f.powers(a, n)
            assert got.dtype == np.int32 and got.tolist() == want[:n], (a, n)
    with pytest.raises(IndexError):
        f.powers(q, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 17, 32, 127, 256, 2039])
def test_row_tables_match_reference_arithmetic(q):
    # matrix's integer-row elimination reads x / f and -f * x off these
    # tables: every entry a row of field elements can index, against
    # table-free arithmetic
    f = field_from_order(q)
    if q == 2039:  # past a byte, as any p > 127 whose row steps could carry
        assert f._row_tables is None
        return
    norm, negmul = f._row_tables
    assert len(norm) == len(negmul) == q and {len(t) for t in (*norm[1:], *negmul)} == {256}
    elems = np.arange(q)
    for lead, inv in zip(range(1, q), ref.inv(f, elems[1:]).tolist()):
        assert np.array_equal(np.frombuffer(norm[lead], np.uint8)[:q], ref.mul(f, inv, elems))
    for lead in range(q):
        want = ref.neg(f, ref.mul(f, lead, elems))
        assert np.array_equal(np.frombuffer(negmul[lead], np.uint8)[:q], want)


@pytest.mark.parametrize("q", [2048, 2039])
def test_int_path_lists_stay_linear_in_q(q):
    # the int path reads flat int lists of O(q) length:
    # no q by q Python table
    f = field_from_order(q)
    lists = {k: v for k, v in vars(f).items() if isinstance(v, list)}
    assert set(lists) == {"_exp_list", "_log_list", "_neg_list"}
    for v in lists.values():
        assert len(v) <= 3 * q and all(type(x) is int for x in v)


def test_characteristic_two_matmul_in_slices(monkeypatch):
    # one inner index per slice gives the same product as one slice for all
    f = field_from_order(16)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 16, (6, 11)).astype(np.int32)
    b = rng.integers(0, 16, (11, 4)).astype(np.int32)
    want = ref.matmul(f, a, b)
    assert np.array_equal(f._vmatmul(a, b), want)
    monkeypatch.setattr(gf, "_MATMUL_CHUNK", 1)
    assert np.array_equal(f._vmatmul(a, b), want)


@pytest.mark.parametrize("q", [2, 17, 2039, 4, 16, 1024, 9, 27])
def test_square_tables_only_where_a_kernel_reads_them(q):
    # prime fields compute mod p, characteristic 2 adds by XOR
    f = field_from_order(q)
    arrays = {k: v for k, v in vars(f).items() if isinstance(v, np.ndarray)}
    want = set() if f.l == 1 else {"_MUL"} if f.p == 2 else {"_ADD", "_MUL"}
    assert {k for k, v in arrays.items() if v.shape == (q, q)} == want
    assert all(v.shape in ((q,), (q, q)) for v in arrays.values())


def test_largest_prime_field_holds_under_64_kb():
    f = field_from_order(2039)
    assert sum(v.nbytes for v in vars(f).values() if isinstance(v, np.ndarray)) < 64 * 1024


@pytest.mark.parametrize("q", [2, 16, 9])
def test_public_ops_match_reference(q):
    # every public op, on arrays and on the int path, against the
    # table-free reference
    f = field_from_order(q)
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    nz = np.arange(1, q)
    an, bn = np.meshgrid(np.arange(q), nz, indexing="ij")
    for op, args in (("add", (a, b)), ("sub", (a, b)), ("mul", (a, b)), ("div", (an, bn)),
                     ("neg", (a[0],)), ("inv", (nz,))):
        want = getattr(ref, op)(f, *args)
        assert np.array_equal(getattr(f, op)(*args), want), op
        ints = [[int(v) for v in arg.ravel()] for arg in args]
        assert [getattr(f, op)(*xs) for xs in zip(*ints)] == want.ravel().tolist(), op
    for x in range(q):
        for k in range(0 if x == 0 else -q, q + 2):
            assert f.pow(x, k) == ref.power(f, x, k), (x, k)


@pytest.mark.parametrize("q", [4, 512, 2048])
def test_product_table_built_in_row_blocks_matches_one_shot(q):
    # the one-shot build the row blocks replaced: every sum of two logs,
    # reduced mod q - 1, gathered from exp at once; 3, 511 and 2047 nonzero
    # rows make one block, two, and seven and a partial last one
    f = field_from_order(q)
    exp = np.array([f.exp(i) for i in range(q - 1)], dtype=np.int32)
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    mul = np.zeros((q, q), dtype=np.int32)
    la = log[1:]
    mul[1:, 1:] = exp[(la[:, None] + la[None, :]) % (q - 1)]
    assert f._MUL.dtype == np.int32 and np.array_equal(f._MUL, mul)


def test_largest_field_build_stays_small():
    # building GF(2048) in a fresh interpreter raises its peak resident
    # memory by the 16 MB product table and a few MB of blocks; one
    # (q - 1)**2 int64 temporary alone would add 32 MB.  The peak is the
    # process's own VmHWM: ru_maxrss keeps the forking test runner's peak
    # across exec
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status")
    code = (
        "import re, sys\n"
        f"sys.path.insert(0, {str(Path(gf.__file__).parents[1])!r})\n"
        "import aqcc\n"
        "from aqcc.gf import FiniteField\n"
        "def peak():\n"
        "    return int(re.search(r'VmHWM:\\s+(\\d+)', open('/proc/self/status').read())[1])\n"
        "before = peak()\n"
        "FiniteField.get(2, 11)\n"
        "print(peak() - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert int(out.stdout) < 40 * 1024  # kB


@pytest.mark.parametrize("q", [3, 5, 17, 2039])
def test_numpy_scalar_operands_over_prime_fields(q):
    # numpy scalars go through the kernels, whose sums of 0-d operands
    # come back from numpy as scalars
    f = field_from_order(q)
    for x, y in ((0, 0), (1, q - 1), (q - 1, q - 1), (q // 2, q - 2)):
        for form in (np.int32, np.int64):
            assert f.add(form(x), form(y)) == f.add(x, y)
            assert f.sub(form(x), form(y)) == f.sub(x, y)
            assert f.mul(form(x), form(y)) == f.mul(x, y)
            assert f.neg(form(x)) == f.neg(x)
