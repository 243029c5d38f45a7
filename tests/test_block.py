import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import field_reference as ref
from aqcc.errors import (
    AqccError,
    DuplicateEvaluationPoint,
    InvalidDesignedDistance,
    NotCoprime,
    RootOfUnityUnavailable,
    ZeroMultiplier,
)
from aqcc import FamilyParams, block, convo, selftest, trellis
from aqcc.block import (
    BlockCode,
    DistanceBound,
    _enumerate_weights,
    bch_parity,
    cyclic_structure,
    grs_build,
    macwilliams_transform,
    rs_parity,
)
from aqcc.certify import certify_params
from aqcc.gf import FiniteField, SubfieldBasis
from aqcc.matrix import MatrixGF, field_from_order
from helpers import count_calls, designed


def contains_vector(code: BlockCode, v) -> bool:
    syn = MatrixGF(code.field, np.asarray(v, dtype=np.int32).reshape(1, -1)) @ code.parity.T
    return syn.is_zero()


def weight_distribution(code: BlockCode, budget: int = 1 << 22) -> list[int] | None:
    """Exact weight distribution A_0..A_n, or None if over budget."""
    q = code.field.q
    if code.k == 0:
        return [1] + [0] * code.n
    if q ** code.k <= budget:
        counts, _, _ = _enumerate_weights(code.field, code.generator.a)
        return [int(c) for c in counts]
    if q ** (code.n - code.k) <= budget:
        counts, _, _ = _enumerate_weights(code.field, code.parity.a)
        return macwilliams_transform([int(c) for c in counts], code.n, q)
    return None


def expanded_row(s, c: int) -> np.ndarray:
    """The base-field rows of the parity row zeta**(c*j), zero and dependent
    rows removed by one elimination: the reference for a coset's group."""
    row = np.array([s.ext.pow(s.zeta, c * j % s.n) for j in range(s.n)])
    coords = SubfieldBasis(s.field, s.ext).expand_array(row).T
    return MatrixGF(s.field, coords).remove_dependent_rows().a


class TestReedSolomon:
    def test_rs_6_3_4_over_gf7(self):
        s = rs_parity(FiniteField.get(7, 1), 6, 4, b=1)
        assert s.defining_set == (1, 2, 3)
        assert s.m == 1 and s.designed == 4
        code = s.code
        assert (code.n, code.k) == (6, 3)
        d = code.min_distance()
        assert d.exact and d.lower == 4 and d.method == "enumeration"
        assert contains_vector(code, d.witness)
        assert np.count_nonzero(d.witness) == 4

    def test_rs_10_3_8_over_gf11(self):
        code = rs_parity(FiniteField.get(11, 1), 10, 8, b=1).code
        assert (code.n, code.k) == (10, 3)
        assert code.min_distance().lower == 8

    def test_rs_needs_root_of_unity(self):
        with pytest.raises(RootOfUnityUnavailable):
            rs_parity(FiniteField.get(7, 1), 5, 3)

    def test_bad_designed_distance(self):
        with pytest.raises(InvalidDesignedDistance):
            rs_parity(FiniteField.get(7, 1), 6, 1)
        with pytest.raises(InvalidDesignedDistance):
            bch_parity(FiniteField.get(7, 1), 6, 8)

    def test_length_sharing_characteristic(self):
        with pytest.raises(NotCoprime):
            bch_parity(FiniteField.get(3, 2), 3, 2)


class TestBch:
    def test_closure_amplifies_designed_distance(self):
        # exponents 0..3 close to {0,1,2,3,14,15,16}: a run of length 7
        s = bch_parity(FiniteField.get(2, 4), 17, 5, b=0)
        assert s.m == 2
        assert s.defining_set == (0, 1, 2, 3, 14, 15, 16)
        assert s.designed == 8
        assert (s.code.n, s.code.k) == (17, 10)

    def test_out_of_budget_distance_closed_by_witness(self):
        s = bch_parity(FiniteField.get(2, 4), 17, 5, b=0)
        d = s.code.min_distance(budget=1000)
        # the search proves only its witness's weight; the run closes it
        assert (d.lower, d.upper, d.method, d.floor) == (1, 8, "bounded", "none")
        d = d.meet(designed(s.designed))
        assert d.method == "bounded" and d.floor == "designed"
        assert d.exact and d.lower == 8
        assert contains_vector(s.code, d.witness)

    def test_gf9_length_10_structure(self):
        # conjugate pairs {3,7} and {4,6} each span two rows, 5 is degenerate
        s = bch_parity(FiniteField.get(3, 2), 10, 4, b=3)
        assert s.defining_set == (3, 4, 5, 6, 7)
        assert s.designed == 6
        assert len(s.row_groups[3]) == 2
        assert len(s.row_groups[4]) == 2
        assert len(s.row_groups[5]) == 1
        code = s.code
        assert (code.n, code.k) == (10, 5)
        d = code.min_distance()
        assert d.exact and d.lower == 6 and d.method == "enumeration"

    def test_conjugate_groups_span_same_space(self):
        # 7 = 3 * 9 mod 10 shares the coset of 3, so only 3 keeps a group
        s = bch_parity(FiniteField.get(3, 2), 10, 4, b=3)
        assert s.defining_set == (3, 4, 5, 6, 7)
        assert sorted(s.row_groups) == [3, 4, 5]
        a = MatrixGF(s.field, s.row_groups[3])
        b = MatrixGF(s.field, expanded_row(s, 7))
        both = MatrixGF(s.field, np.concatenate([a.a, b.a]))
        assert a.rank() == b.rank() == both.rank() == 2

    def test_short_coset_rows_are_eliminated(self):
        # 2 has order m = 4 mod 15, but the coset {5, 10} has two members:
        # zeta**5 lies in GF(4), so its 3 nonzero coordinate rows span 2
        s = cyclic_structure(FiniteField.get(2, 1), 15, [5])
        assert s.m == 4 and s.defining_set == (5, 10)
        row = np.array([s.ext.pow(s.zeta, 5 * j % 15) for j in range(15)])
        coords = SubfieldBasis(s.field, s.ext).expand_array(row).T
        assert np.count_nonzero(coords.any(axis=1)) == 3
        assert s.code.parity.a.shape == (2, 15)
        assert np.array_equal(s.row_groups[5], expanded_row(s, 5))

    def test_parity_rows_annihilate_generator(self):
        s = bch_parity(FiniteField.get(2, 4), 17, 5, b=0)
        assert (s.code.generator @ s.code.parity.T).is_zero()


def test_counted_cosets_match_eliminated_ones():
    # every BCH and RS source of the grid up to q = 32, one per source_key:
    # each coset's group holds exactly |coset| rows and is the eliminated
    # expansion, row for row, so the parity is the same bytes
    from aqcc.families import FAMILIES, build_source, enumerate_family, source_key
    from aqcc.gf import prime_factors

    keys = {source_key(params)
            for family in FAMILIES if family.startswith(("II-", "III-T5"))
            for q in range(2, 33) if len(prime_factors(q)) == 1
            for params, _ in enumerate_family(family, q)}
    assert {k[0] for k in keys} == {"bch", "rs"} and {k[1] for k in keys} >= {9, 16, 25, 27, 32}
    short = 0
    for key in sorted(keys):
        s = build_source(key)
        want = {}
        for c in s.defining_set:
            coset = block._closure(s.n, s.field.q, {c})
            if coset[0] == c:
                want[c] = expanded_row(s, c)
                assert len(s.row_groups[c]) == len(coset), key
                short += len(coset) < s.m
        assert list(s.row_groups) == list(want), key
        for c, rows in want.items():
            assert np.array_equal(s.row_groups[c], rows), (key, c)
        assert s.code.parity.a.tobytes() == np.concatenate(list(want.values())).astype(np.int32).tobytes()
    assert len(keys) > 200 and short > 0


BCH_CASES = st.tuples(
    st.sampled_from([(2, 1, 7), (2, 1, 15), (3, 1, 8), (2, 2, 5), (5, 1, 6),
                     (7, 1, 6), (3, 2, 10), (2, 2, 15), (11, 1, 10)]),
    st.integers(2, 6),
    st.integers(0, 6),
)


@settings(max_examples=40, deadline=None)
@given(BCH_CASES)
def test_bch_designed_bound_is_sound(case):
    (p, l, n), delta, b = case
    field = FiniteField.get(p, l)
    assume(delta <= n)
    s = bch_parity(field, n, delta, b=b)
    assume(0 < s.code.k)
    assume(field.q ** s.code.k <= 50000)
    d = s.code.min_distance()
    assert d.exact
    assert d.lower >= s.designed


class TestGrs:
    def test_full_length_repetition_like(self):
        f = FiniteField.get(5, 1)
        g = grs_build(f, [0, 1, 2, 3, 4], [1, 2, 3, 4, 1], k=1)
        d = g.code.min_distance()
        assert d.exact and d.lower == 5
        assert sorted(g.row_groups) == [0, 1, 2, 3]

    def test_macwilliams_route_when_only_dual_is_small(self):
        f = FiniteField.get(17, 1)
        g = grs_build(f, list(range(17)), [1] * 17, k=13)
        d = g.code.min_distance(budget=100_000)
        assert d.method == "macwilliams"
        assert d.exact and d.lower == 5

    def test_dual_multiplier_rows_are_orthogonal(self):
        f = FiniteField.get(2, 3)
        g = grs_build(f, list(range(8)), [1, 3, 1, 5, 2, 7, 1, 4], k=3)
        assert (g.code.generator @ g.code.parity.T).is_zero()
        assert (g.code.n, g.code.k) == (8, 3)
        assert g.code.min_distance().lower == 6

    def test_a_wrong_dual_multiplier_is_refused(self, monkeypatch):
        # w is a closed form, right for every input, so only a doctored
        # inverse, on a field of its own, moves an entry of it; the one
        # product G @ H.T then refuses the parity
        f = FiniteField(7)
        inverse = f._vinv

        def moved(a):
            out = np.array(inverse(a))
            out[0] = f.add(int(out[0]), 1)
            return out

        monkeypatch.setattr(f, "_vinv", moved)
        with pytest.raises(AqccError, match="^dual multiplier identity failed; GRS parity is wrong$"):
            grs_build(f, list(range(6)), [1] * 6, k=3)

    @pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 16, 17])
    def test_dual_multipliers_match_the_scalar_loop(self, q):
        f = field_from_order(q)
        rng = random.Random(q)
        for n in (3, q // 2 + 1, q):
            points = rng.sample(range(q), n)
            multipliers = [1 + rng.randrange(q - 1) for _ in range(n)]
            want = []
            for j in range(n):
                prod = multipliers[j]
                for i in range(n):
                    if i != j:
                        prod = f.mul(prod, f.sub(points[j], points[i]))
                want.append(f.inv(prod))
            g = grs_build(f, points, multipliers, k=max(1, n // 2))
            assert g.dual_multipliers == tuple(want)

    def test_validation(self):
        f = FiniteField.get(5, 1)
        with pytest.raises(DuplicateEvaluationPoint):
            grs_build(f, [1, 1, 2], [1, 1, 1], k=1)
        with pytest.raises(ZeroMultiplier):
            grs_build(f, [0, 1, 2], [1, 0, 1], k=1)
        with pytest.raises(ValueError):
            grs_build(f, [0, 1, 2], [1, 1, 1], k=3)
        with pytest.raises(ValueError, match="^need one multiplier per point$"):
            grs_build(f, [0, 1, 2], [1, 1], k=1)
        # the array kernels check no range, so grs_build refuses non-elements
        for points, multipliers in (([0, 1, 5], [1, 1, 1]), ([-1, 1, 2], [1, 1, 1]),
                                    ([0, 1, 2], [1, 7, 1])):
            with pytest.raises(ValueError, match="elements of GF"):
                grs_build(f, points, multipliers, k=1)


def krawtchouk_transform(counts, n, q):
    """The MacWilliams oracle: sum_j A_j K_i(j) / |C| term by term, with the
    Krawtchouk values K_i(j) = sum_s (-1)^s C(j, s) C(n-j, i-s) (q-1)^(i-s)."""
    size = sum(counts)
    out = []
    for i in range(n + 1):
        s = sum(
            counts[j] * (-1) ** t * math.comb(j, t) * math.comb(n - j, i - t) * (q - 1) ** (i - t)
            for j in range(n + 1) for t in range(min(i, j) + 1)
        )
        if s % size:
            return None
        out.append(s // size)
    return out


class TestDistributions:
    def enumerated(self, code):
        return weight_distribution(code, budget=1 << 20)

    def test_macwilliams_matches_enumeration(self):
        cases = [
            rs_parity(FiniteField.get(7, 1), 6, 4, b=1).code,
            bch_parity(FiniteField.get(3, 2), 10, 4, b=3).code,
            grs_build(FiniteField.get(5, 1), [0, 1, 2, 3, 4], [1] * 5, k=2).code,
        ]
        for code in cases:
            direct = self.enumerated(code)
            via_dual = macwilliams_transform(self.enumerated(code.dual()), code.n, code.field.q)
            assert direct == via_dual

    def test_transform_is_an_involution(self):
        code = rs_parity(FiniteField.get(7, 1), 6, 4, b=1).code
        a = self.enumerated(code)
        q, n = code.field.q, code.n
        assert macwilliams_transform(macwilliams_transform(a, n, q), n, q) == a

    def test_transform_matches_the_krawtchouk_sum(self):
        # real weight counts: both sides of three codes and of random codes
        codes = [
            rs_parity(FiniteField.get(7, 1), 6, 4, b=1).code,
            bch_parity(FiniteField.get(3, 2), 10, 4, b=3).code,
            grs_build(FiniteField.get(17, 1), list(range(17)), [1] * 17, k=13).code.dual(),
        ]
        rng = np.random.default_rng(5)
        for q, k, n in ((2, 4, 9), (3, 3, 7), (4, 2, 12), (5, 3, 6), (16, 2, 5), (17, 2, 20)):
            f = field_from_order(q)
            gen = rng.integers(0, q, size=(k, n)).astype(np.int32)
            codes.append(BlockCode(f, MatrixGF(f, gen)).dual())
        for code in codes:
            for side in (code, code.dual()):
                a = self.enumerated(side)
                want = krawtchouk_transform(a, side.n, side.field.q)
                assert want is not None
                assert macwilliams_transform(a, side.n, side.field.q) == want
        # random counts: the same dual counts, or both refuse the division
        pick = random.Random(5)
        for q, n in ((2, 1), (2, 9), (3, 7), (4, 12), (5, 6), (16, 5), (17, 20)):
            for _ in range(20):
                a = [1] + [pick.randrange(3) for _ in range(n)]
                want = krawtchouk_transform(a, n, q)
                if want is None:
                    with pytest.raises(AqccError, match="not divisible"):
                        macwilliams_transform(a, n, q)
                else:
                    assert macwilliams_transform(a, n, q) == want

    def test_transform_refuses_a_non_divisible_sum(self):
        assert krawtchouk_transform([1, 2, 0, 0], 3, 2) is None
        with pytest.raises(AqccError, match="not divisible"):
            macwilliams_transform([1, 2, 0, 0], 3, 2)

    def test_distribution_totals(self):
        code = bch_parity(FiniteField.get(3, 2), 10, 4, b=3).code
        a = self.enumerated(code)
        assert a[0] == 1
        assert sum(a) == code.field.q ** code.k


class TestBlockCode:
    def test_repr(self):
        f = FiniteField.get(3, 1)
        assert repr(BlockCode(f, MatrixGF(f, [[1, 1, 1]]))) == "<[3, 2] code over GF(3)>"

    def test_dual_swaps_matrices(self):
        code = rs_parity(FiniteField.get(7, 1), 6, 4, b=1).code
        dual = code.dual()
        assert dual.parity == code.generator
        assert dual.generator == code.parity
        assert (dual.n, dual.k) == (6, 3)

    def test_contains_vector(self):
        code = rs_parity(FiniteField.get(7, 1), 6, 4, b=1).code
        f = code.field
        gen = code.generator
        v = f.add(gen.a[0], f.mul(3, gen.a[1]))
        assert contains_vector(code, v)
        w = np.array(v).copy()
        w[0] = f.add(int(w[0]), 1)
        assert not contains_vector(code, w)

    def test_dual_of_a_parity_is_generated_by_its_rows(self):
        f = FiniteField.get(2, 2)
        gen = MatrixGF(f, [[1, 0, 1, 2], [0, 1, 3, 1]])
        code = BlockCode(f, gen).dual()
        assert (code.n, code.k) == (4, 2)
        assert code.generator == gen
        assert (code.generator @ code.parity.T).is_zero()

    @pytest.mark.parametrize("first", ["code", "dual"])
    def test_code_and_dual_share_one_enumeration(self, monkeypatch, first):
        # q**k = 17**13 is over the budget and q**(n - k) = 17**4 fits: the
        # code takes the MacWilliams route and its dual enumerates, both on
        # the one enumeration of the parity, whichever of them asks first
        f = FiniteField.get(17, 1)
        code = grs_build(f, list(range(17)), [1] * 17, k=13).code
        budget = 100_000
        # codes on the same two matrices that share nothing
        alone = [BlockCode._independent(f, code.parity, code.generator).min_distance(budget),
                 BlockCode._independent(f, code.generator, code.parity).min_distance(budget)]
        calls = []
        enumerate_weights = block._enumerate_weights

        def counted(field, gen):
            calls.append(len(gen))
            return enumerate_weights(field, gen)

        monkeypatch.setattr(block, "_enumerate_weights", counted)
        dual = code.dual()
        got = {c: c.min_distance(budget) for c in ((code, dual) if first == "code" else (dual, code))}
        assert calls == [4]
        assert [got[code], got[dual]] == alone
        assert [got[code].method, got[dual].method] == ["macwilliams", "enumeration"]
        assert np.array_equal(got[dual].witness, alone[1].witness)
        # the dual of the dual shares them too
        assert dual.dual().min_distance(budget) == alone[0] and calls == [4]

    def test_zero_code_distance_rejected(self):
        f = FiniteField.get(2, 1)
        code = BlockCode(f, MatrixGF.identity(f, 3))
        assert code.k == 0
        with pytest.raises(ValueError):
            code.min_distance()
        assert weight_distribution(code) == [1, 0, 0, 0]


def reference_weights(field, gen):
    """Loop-form reference enumerator: every message's codeword is built
    from its base-q digits (digit t weighs q**t), 8192 messages at a time.
    Returns the counts A_0..A_n, the least nonzero-message weight and the
    first codeword of that weight in message order."""
    k, n = gen.shape
    q = field.q
    counts = np.zeros(n + 1, dtype=np.int64)
    best_w, best = n + 1, None
    place = q ** np.arange(k, dtype=np.int64)
    for start in range(0, q ** k, 8192):
        msgs = np.arange(start, min(start + 8192, q ** k), dtype=np.int64)
        digits = (msgs[:, None] // place[None, :]) % q
        cw = np.zeros((len(msgs), n), dtype=np.int32)
        for t in range(k):
            cw = ref.add(field, cw, ref.mul(field, digits[:, t, None], gen[None, t, :]))
        w = (cw != 0).sum(axis=1)
        counts += np.bincount(w, minlength=n + 1)
        if start == 0:
            w[0] = n + 1  # zero message
        i = int(np.argmin(w))
        if w[i] < best_w:
            best_w, best = int(w[i]), cw[i].copy()
    return counts, best_w, best


# (q, k, n): k = 1, a few rows, and q**k past 8192 so that the messages
# span several blocks of low codewords
ENUM_SHAPES = [
    (2, 1, 5), (2, 6, 11), (2, 14, 18),
    (3, 1, 4), (3, 4, 8), (3, 9, 12),
    (4, 1, 6), (4, 3, 7), (4, 7, 10),
    (5, 1, 3), (5, 3, 6), (5, 6, 9),
    (7, 1, 7), (7, 3, 6), (7, 5, 8),
    (8, 1, 4), (8, 2, 7), (8, 5, 7),
    (9, 1, 5), (9, 3, 5), (9, 5, 7),
    (11, 1, 10), (11, 3, 10), (11, 4, 8),
    (16, 1, 6), (16, 2, 5), (16, 4, 6),
    (17, 1, 8), (17, 3, 6), (17, 4, 6),
]


def enumeration_inputs(q, k, n, seed):
    """A random generator, its parity matrix, and the generator with a zero
    row and a repeated row (both give weight-0 nonzero messages)."""
    f = field_from_order(q)
    rng = np.random.default_rng(seed)
    gen = rng.integers(0, q, size=(k, n)).astype(np.int32)
    out = [gen]
    code = BlockCode(f, MatrixGF(f, gen)).dual()
    if 0 < code.parity.rows and q ** code.parity.rows <= 1 << 17:
        out.append(code.parity.a)
    if k > 1:
        out.append(np.concatenate([gen[:-1], np.zeros((1, n), dtype=np.int32)]))
        out.append(np.concatenate([gen[:-1], gen[:1]]))
    return f, out


def assert_same_enumeration(f, gen):
    counts, d, wit = _enumerate_weights(f, gen)
    ref_counts, ref_d, ref_wit = reference_weights(f, gen)
    assert counts.tolist() == ref_counts.tolist()
    assert d == ref_d
    if ref_wit is None:
        assert wit is None
    else:
        assert wit.dtype == ref_wit.dtype and wit.tobytes() == ref_wit.tobytes()


@pytest.mark.parametrize("q,k,n", ENUM_SHAPES, ids=[f"q{q}-k{k}-n{n}" for q, k, n in ENUM_SHAPES])
def test_enumeration_matches_reference(q, k, n):
    f, gens = enumeration_inputs(q, k, n, seed=1000 * q + 10 * k + n)
    for gen in gens:
        assert_same_enumeration(f, gen)


@pytest.mark.parametrize("q,k,n", [(2, 11, 13), (3, 6, 8), (5, 4, 6), (17, 3, 5)])
def test_enumeration_with_tiny_blocks_matches_reference(monkeypatch, q, k, n):
    # with 16-row low tables most rows are high rows
    monkeypatch.setattr(block, "_CHUNK", 16)
    f, gens = enumeration_inputs(q, k, n, seed=7 * q + k)
    for gen in gens:
        assert_same_enumeration(f, gen)


@pytest.mark.parametrize("q,k,n", [(2, 11, 13), (5, 4, 6), (17, 3, 5)])
def test_enumeration_in_small_kernel_batches_matches_reference(monkeypatch, q, k, n):
    # 40 table entries a kernel call score a few high blocks at a time, so
    # the batches end inside each table of high blocks
    monkeypatch.setattr(block, "_CHUNK", 16)
    monkeypatch.setattr(block, "_SCORE_CHUNK", 40)
    f, gens = enumeration_inputs(q, k, n, seed=7 * q + k)
    for gen in gens:
        assert_same_enumeration(f, gen)


def test_witness_weight_must_be_the_upper_bound():
    row = np.array([[1, 0, 2, 1]], dtype=np.int32)
    b = DistanceBound(2, 3, "bounded", "none", row)
    assert b.witness is row and not row.flags.writeable
    # the witness takes no part in == or hash
    bare = DistanceBound(2, 3, "bounded", "none")
    assert b == bare and hash(b) == hash(bare)
    # columns 1 + D**2, 0 and 1, one row per degree
    assert DistanceBound(3, 3, "dijkstra", "dijkstra", np.array([[1, 0, 1], [0, 0, 0], [1, 0, 0]])).exact
    with pytest.raises(AqccError, match="weight 2"):
        DistanceBound(3, 3, "enumeration", "enumeration", np.array([[1, 0, 2]]))
    with pytest.raises(AqccError, match="weight 4"):
        DistanceBound(3, 3, "dijkstra", "dijkstra", np.array([[1, 1], [1, 1]]))


@pytest.mark.parametrize("lower,upper", [(5, 3), (0, 3), (0, None), (-1, None)])
def test_empty_bracket_is_refused(lower, upper):
    with pytest.raises(AqccError, match="lower bound"):
        DistanceBound(lower, upper, "bounded", "none")


W2 = np.array([[0, 0, 2, 1]], dtype=np.int32)
W3 = np.array([[1, 0, 2, 1]], dtype=np.int32)

MEET_TABLE = [
    # a bounded search's 1 under floor none meets a designed bound
    (DistanceBound(1, 5, "bounded", "none"), designed(3), (3, 5, "bounded", "designed")),
    (DistanceBound(1, 5, "bounded", "none"), designed(5), (5, 5, "bounded", "designed")),
    # ... and a named floor beats none at an equal lower bound of 1
    (DistanceBound(1, 5, "bounded", "none"), DistanceBound(1, None, "designed", "d_dual"),
     (1, 5, "bounded", "d_dual")),
    # an exact search keeps its route floor at an equal designed bound
    (DistanceBound(4, 4, "enumeration", "enumeration"), designed(4), (4, 4, "enumeration", "enumeration")),
    # ... and above a lower one
    (DistanceBound(6, 6, "dijkstra", "dijkstra", states=17), designed(4), (6, 6, "dijkstra", "dijkstra")),
    # a larger lower bound wins over a bounded search's named floor
    (DistanceBound(3, 8, "bounded", "d_dual"), DistanceBound(5, None, "designed", "chain"),
     (5, 8, "bounded", "chain")),
]


@pytest.mark.parametrize("a,b,want", MEET_TABLE)
def test_meet_table(a, b, want):
    m = a.meet(b)
    assert (m.lower, m.upper, m.method, m.floor) == want
    assert m.states == a.states
    # swapping the operands leaves the bracket itself unchanged
    swapped = b.meet(a)
    assert (swapped.lower, swapped.upper) == want[:2]


def test_meet_refuses_a_crossing_pair():
    with pytest.raises(AqccError, match="lower bound 4 exceeds 3, the weight of a codeword"):
        DistanceBound(1, 3, "bounded", "none", W3).meet(designed(4))
    with pytest.raises(AqccError, match="lower bound 4 exceeds 3, an upper bound"):
        DistanceBound(3, 3, "macwilliams", "macwilliams").meet(designed(4))
    with pytest.raises(AqccError, match="exceeds 2, the weight of a codeword"):
        DistanceBound(3, None, "designed", "chain").meet(DistanceBound(1, 2, "bounded", "none", W2))


def test_meet_witness_follows_the_smaller_upper_bound():
    a = DistanceBound(1, 3, "bounded", "none", W3)
    b = DistanceBound(2, 2, "enumeration", "enumeration", W2)
    for m in (a.meet(b), b.meet(a)):
        assert (m.lower, m.upper) == (2, 2) and m.witness is W2
    # an upper bound of None is infinite, so the other's witness stays
    assert designed(2).meet(a).witness is W3 and a.meet(designed(2)).witness is W3
    # of two equal upper bounds the receiver keeps its own witness
    c = DistanceBound(3, 3, "dijkstra", "dijkstra", np.array([[1, 1, 0, 1]], dtype=np.int32))
    assert a.meet(c).witness is W3 and c.meet(a).witness is c.witness


def test_min_sum_composes_piece_lower_bounds():
    exact3 = DistanceBound(3, 3, "enumeration", "enumeration", W3)
    b = DistanceBound.min_sum(designed(2), exact3, DistanceBound(1, 9, "bounded", "none").meet(designed(7)), "chain")
    assert (b.lower, b.upper, b.method, b.floor) == (5, 9, "chain", "chain")
    # the stack piece's upper bound and witness are the bracket's
    b = DistanceBound.min_sum(designed(2), designed(2), exact3, "chain")
    assert (b.lower, b.upper, b.method) == (3, 3, "chain") and b.witness is W3
    b = DistanceBound.min_sum(designed(2), exact3, designed(4), "chain")
    assert (b.lower, b.upper, b.method, b.floor) == (4, None, "designed", "chain")


def test_witness_comes_from_the_first_block_in_message_order():
    # q = 7, k = 5: four low rows and one high row, whose multiples lam * row
    # are blocks 1..6.  Block 0 misses the least weight 2; block 2 reaches
    # it at a smaller low index than block 1, and block 1 comes first
    f = field_from_order(7)
    gen = np.random.default_rng(2).integers(0, 7, size=(5, 8)).astype(np.int32)
    assert block._low_rows(7, 5) == 4
    low = block.codeword_table(f, gen[:4])
    first = {}
    for lam in range(7):
        w = (f._vadd(low, f._vmul(lam, gen[4])[None]) != 0).sum(axis=1)
        if lam == 0:
            w[0] = 9
        first[lam] = int(np.argmax(w == 2)) if (w == 2).any() else None
    assert first[0] is None and first[2] < first[1]
    assert_same_enumeration(f, gen)
    assert _enumerate_weights(f, gen)[2].tolist() == [4, 0, 1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("q,k", [(2, 16), (7, 6), (17, 4)])
def test_enumeration_visits_one_block_per_scalar_class(monkeypatch, q, k):
    blocks = []
    mismatches = block.mismatches
    monkeypatch.setattr(block, "mismatches",
                        lambda table_t, want: blocks.append(len(want)) or mismatches(table_t, want))
    f = field_from_order(q)
    gen = np.random.default_rng(q + k).integers(0, q, size=(k, k + 3)).astype(np.int32)
    _enumerate_weights(f, gen)
    a = block._low_rows(q, k)
    assert a < k  # there are high blocks to skip
    assert sum(blocks) <= 2 + (q ** (k - a) - 1) // (q - 1)


@pytest.mark.parametrize("q,rows,n", [(2, 5, 0), (3, 40, 7), (7, 30, 128), (2, 9, 300), (2048, 12, 20),
                                      (2, 3, 300), (7, 2, 20)])
def test_mismatches_against_brute_force(q, rows, n):
    # n = 300 > 255 needs the two-byte count: want[1] differs everywhere;
    # fewer than 5 table rows put the batch on the Fortran-order side
    rng = np.random.default_rng(q + rows + n)
    table = rng.integers(0, q, size=(rows, n)).astype(np.int32)
    want = rng.integers(0, q, size=(5, n)).astype(np.int32)
    want[0], want[1] = table[0], (table[1] + 1) % q
    got = block.mismatches(block.by_column(table, q), want)
    assert got.shape == (5, rows)
    assert got.tolist() == [[sum(int(a) != int(b) for a, b in zip(t, w)) for t in table] for w in want]
    assert got[0, 0] == 0 and got[1, 1] == n


def test_enumeration_of_no_rows():
    f = FiniteField.get(3, 1)
    assert_same_enumeration(f, np.zeros((0, 4), dtype=np.int32))


@pytest.mark.parametrize("q,k,n", [(2, 10, 13), (3, 6, 8), (4, 4, 7), (7, 3, 5), (11, 3, 4)])
def test_weight_distribution_macwilliams_round_trip(q, k, n):
    f = field_from_order(q)
    gen = np.random.default_rng(q + k + n).integers(0, q, size=(k, n)).astype(np.int32)
    code = BlockCode(f, MatrixGF(f, gen)).dual()
    r = n - code.k
    assert code.k > r  # the parity side is the smaller one
    direct = weight_distribution(code, budget=q ** code.k)
    via_dual = weight_distribution(code, budget=q ** r)
    assert direct == via_dual
    assert sum(direct) == q ** code.k and direct[0] == 1
    assert macwilliams_transform(via_dual, n, q) == weight_distribution(code.dual(), budget=q ** r)


def test_desk_pass_enumerates_each_code_once(monkeypatch):
    """The 19 reference rows with q <= 17 at desk, as the desk-mix bench
    runs them: 72 enumerations of 2,126,451 codewords.  No certificate
    enumerates one code twice, a code being the rref of the enumerated
    matrix: a code and its dual share one enumeration, and a degree-0
    chain piece that checks the source's dual reads d_dual's search."""
    rows = [row[:3] for row in selftest.REFERENCE_ROWS if row[1] <= 17]
    assert len(rows) == 19
    calls = []
    enumerate_weights = block._enumerate_weights

    def counted(field, gen):
        calls[-1].append((field.q ** len(gen), MatrixGF(field, gen).rref()[0].a.tobytes()))
        return enumerate_weights(field, gen)

    monkeypatch.setattr(block, "_enumerate_weights", counted)
    for family, q, kw in rows:
        calls.append([])
        certify_params(FamilyParams(family, q, **kw), effort="desk")
        codes = [code for _, code in calls[-1]]
        assert len(set(codes)) == len(codes), (family, q, kw)
    assert sum(map(len, calls)) == 72
    assert sum(size for cert in calls for size, _ in cert) == 2_126_451


def test_desk_pass_builds_and_searches_each_inner_dual_only_when_open(monkeypatch):
    """The same 19 rows: each builds H1 = dual(G1) and searches G1's free
    distance, and the chain of G2's slice codes closes every d2f, so no
    row builds or searches dual(G2): 19 minimal duals and 19 searches."""
    rows = [row[:3] for row in selftest.REFERENCE_ROWS if row[1] <= 17]
    calls = count_calls(monkeypatch, (convo.dual_generator, trellis.free_distance))
    for family, q, kw in rows:
        certify_params(FamilyParams(family, q, **kw), effort="desk")
    assert calls == {"dual_generator": 19, "free_distance": 19}
