"""Differential tests: the Smith-free predicates, containment and duals
against the Smith form, which is kept in convo as their reference.

The plans come from the random construction-I generator behind the
split-plans selftest, with its default seed; the reference generators are
G1 and G2 of the 25 printed rows.  Containment, a division against the
leading echelon, is also compared with one scalar solve per inner row.
One test makes the Smith form raise and runs the certifier, the free
distance and containment without it; the rest pin which witnesses a
certificate builds and that a non-basic generator is still refused.
"""

import contextlib
import dataclasses
import io
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from aqcc import FamilyParams, certify_params, convo, free_distance, matrix, selftest
from aqcc.block import BlockCode
from aqcc.cli import main
from aqcc.convo import (
    PolyMatrix,
    _reduce,
    block_toeplitz,
    contains,
    dual_generator,
    format_poly_matrix,
    is_basic,
    is_reduced,
    parse_poly_matrix,
    pdivmod,
    pmul,
    reduce,
    smith_form,
    split_to_generator,
)
from aqcc.errors import AqccError, ContainmentFailed, NotBasic
from aqcc.families import LayoutPlan, layout
from aqcc.matrix import MatrixGF, solve_left

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


def duplicate_row(m: PolyMatrix) -> PolyMatrix:
    """Append a copy of row 0, which makes the rows dependent."""
    return PolyMatrix.from_coefficients(m.field, np.concatenate([m.c, m.c[:, :1]], axis=1))


def split_right_inverse(m: PolyMatrix) -> PolyMatrix | None:
    """The constant right inverse a split generator carries: the first k
    columns of its stack right inverse R_S, or None without one."""
    if m._right is None:
        return None
    return PolyMatrix.from_coefficients(m.field, [m._right[:, : m.rows]])


def membership_smith(outer: PolyMatrix, inner: PolyMatrix) -> PolyMatrix:
    """The membership oracle: X with X @ outer == inner from the Smith
    form of outer, dividing inner @ v through the invariant factors."""
    f = outer.field
    sf = smith_form(outer)
    w = inner @ sf.v
    r = sf.rank
    xp = [[() for _ in range(outer.rows)] for _ in range(inner.rows)]
    for j in range(outer.cols):
        for i in range(inner.rows):
            entry = w.e[i][j]
            if j < r:
                q, rem = pdivmod(f, entry, sf.s.e[j][j])
                if rem:
                    raise ContainmentFailed(
                        f"row {i} is not divisible through invariant factor {j}"
                    )
                xp[i][j] = q
            elif entry:
                raise ContainmentFailed(f"row {i} has residue outside the module")
    return PolyMatrix(f, xp, cols=outer.rows) @ sf.u


def membership_rowwise(outer: PolyMatrix, inner: PolyMatrix) -> PolyMatrix:
    """The per-row oracle: reduce outer with its transform U, then solve
    one scalar system per inner row whose rows are the shifts D**t outer_j
    allowed by the predictable-degree bound deg x_j <= deg v - nu_j."""
    f = outer.field
    g, u = _reduce(outer)
    k = g.rows
    nu = np.array(g.row_degrees)
    dvs = inner.row_degrees
    x = np.zeros((max((0, *dvs)) + 1, inner.rows, k), dtype=np.int32)
    for i, dv in enumerate(dvs):
        t, j = np.nonzero(np.arange(dv + 1)[:, None] + nu[None, :] <= dv)
        a = block_toeplitz(g.c, dv + 1, dv + 1)[t * k + j]
        sol = solve_left(MatrixGF(f, a), MatrixGF(f, inner.c[: dv + 1, i].reshape(1, -1)))
        if sol is None:
            raise ContainmentFailed(f"row {i} has residue outside the module")
        x[t, i, j] = sol.a[0]
    return PolyMatrix.from_coefficients(f, x) @ u


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
            image = random_unimodular(g.field, g.rows, rng) @ g
            for m in (g, mutate_constant(g, rng), times_one_plus_d(g), image,
                      duplicate_row(g), duplicate_row(image)):
                want = smith_is_basic(m)
                assert is_basic(m) == want
                r = split_right_inverse(m)
                if r is not None:
                    assert want
                    assert m @ r == PolyMatrix.identity(m.field, m.rows)
                    witnessed += 1
    # every split generator carries R_S, and no other matrix does
    assert witnessed == 2 * PLAN_COUNT


def zeroed_right_block(monkeypatch, rows: np.ndarray, j: int):
    """Zero column j of the right block whenever matrix._rref eliminates
    [A | I] for an A equal to rows, so the R that right_inverse forms for
    such an A has column j zero and A @ R is not the identity."""
    rref = matrix._rref
    k, n = rows.shape

    def corrupted(field, a):
        red, piv = rref(field, a)
        if (a.shape == (k, n + k) and np.array_equal(a[:, :n], rows)
                and np.array_equal(a[:, n:], np.eye(k))):
            red[:, n:][:, j] = 0
        return red, piv

    monkeypatch.setattr(matrix, "_rref", corrupted)


def fresh_seed(plan: LayoutPlan) -> LayoutPlan:
    """plan with its source parity rebuilt from its entries, so the seed
    forms its right inverse again on the next split."""
    field = plan.source.field
    parity = MatrixGF(field, plan.source.parity.a)
    source = BlockCode._independent(field, parity)
    return dataclasses.replace(plan, source=source)


def test_mutated_right_inverse_is_rejected(plans, monkeypatch):
    # the seed's right inverse R is confirmed by one product where it is
    # formed: with column 0 of its right block zeroed, the split refuses
    # it, while a seedless copy of either generator, which carries no
    # split witness, reads its gap from its dual
    for plan in plans[:10]:
        copies = [PolyMatrix.from_coefficients(g.field, g.c) for g in plan.generators()]
        fresh = fresh_seed(plan)
        with monkeypatch.context() as mp:
            zeroed_right_block(mp, fresh.source.parity.a, 0)
            with pytest.raises(AssertionError, match="right inverse witness failed"):
                fresh.generators()
            assert [convo.degree_gap(copy) for copy in copies] == [0, 0]


def test_mutated_leading_inverse_is_rejected(plans, monkeypatch):
    # a split generator has R_L from its split, with no elimination of its
    # own; a seedless copy forms R_L as the right inverse of its leading-row
    # matrix L: with column k - 1 of the right block of [L | I] zeroed, the
    # one product that confirms it there refuses the copy
    for plan in plans[:10]:
        for g in plan.generators():
            copy = PolyMatrix.from_coefficients(g.field, g.c)
            with monkeypatch.context() as mp:
                zeroed_right_block(mp, copy.leading_row_matrix().a, -1)
                assert is_reduced(g)
                with pytest.raises(AssertionError, match="right inverse witness failed"):
                    is_reduced(copy)


def test_right_inverse_column_read_by_the_dual_alone_is_rejected(plans, monkeypatch):
    # a nonzero stack row of degree 0 < j < deg_i in row i has an R_S column
    # that neither the constant right inverse (the first k) nor R_L (the
    # leading rows) reads, only the dual's closed-form kernel; R_S takes it
    # from the seed's R, so each column of R, zeroed in turn, is refused
    # where R is formed, before any generator is split from it
    refused = 0
    for plan in plans:
        seed = plan.source.parity.a
        seed_row = {row: j for j, row in enumerate(map(tuple, seed.tolist()))}
        dual_alone = set()
        for g in plan.generators():
            k = g.rows
            live = np.flatnonzero(g.stack.a.any(axis=1))
            lead = np.array(g.row_degrees) * k + np.arange(k)
            inner = np.setdiff1d(live[live >= k], lead)
            dual_alone.update(seed_row[tuple(g.stack.a[i].tolist())] for i in inner)
        for j in range(len(seed)):
            fresh = fresh_seed(plan)
            with monkeypatch.context() as mp:
                zeroed_right_block(mp, seed, j)
                with pytest.raises(AssertionError, match="right inverse witness failed"):
                    fresh.generators()
            refused += j in dual_alone
    assert refused >= 20


def test_seed_route_agrees_with_seedless_copies(plans):
    # split generators read basic and reduced from their seed's right
    # inverse; copies from their coefficients take the elimination routes,
    # as does a mutated generator, and every fact and witness agrees
    pairs = [layout(FamilyParams(family, q, **kw)).generators()
             for family, q, kw in (row[:3] for row in selftest.REFERENCE_ROWS)]
    pairs += [plan.generators() for plan in plans]
    rng = random.Random(4)
    for g1, g2 in pairs:
        copies = [PolyMatrix.from_coefficients(g.field, g.c) for g in (g1, g2)]
        for g, copy in zip((g1, g2), copies):
            mutated = mutate_constant(g, rng)
            assert g._right is not None and copy._right is None and mutated._right is None
            for m in (g, copy, mutated):
                f, k = m.field, m.rows
                r = split_right_inverse(m)
                assert r is None or m @ r == PolyMatrix.identity(f, k)
                lead = m.leading_echelon
                assert lead is None or (m.leading_row_matrix() @ MatrixGF(f, lead)
                                        == MatrixGF.identity(f, k))
            assert is_basic(g) and is_reduced(g)
            assert is_basic(g) == is_basic(copy) and is_reduced(g) == is_reduced(copy)
            assert convo.degree_gap(g) == convo.degree_gap(copy) == 0
            assert dual_generator(g).c.tobytes() == dual_generator(copy).c.tobytes()
            image = random_unimodular(g.field, g.rows, rng)
            assert contains(g, image @ g) == contains(copy, image @ g) == image
        assert contains(g1, g2) == contains(*copies)


def test_containment_agrees_with_smith(plans):
    rng = random.Random(2)
    failed = transformed = 0
    for plan in plans:
        g1, g2 = plan.generators()
        assert is_reduced(g1)
        mutated = mutate_constant(g2, rng)
        for outer in (g1, random_unimodular(g1.field, g1.rows, rng) @ g1, times_one_plus_d(g1)):
            for inner in (g2, mutated):
                fast = membership(contains, outer, inner)
                slow = membership(membership_smith, outer, inner)
                assert fast == slow == membership(membership_rowwise, outer, inner)
                if isinstance(fast, PolyMatrix):
                    assert fast @ outer == inner
                    transformed += not is_reduced(outer)
                elif outer is g1:
                    failed += 1
        assert isinstance(membership(contains, g1, g2), PolyMatrix)
    assert failed > PLAN_COUNT // 2  # the mutations mostly leave the module
    assert transformed > PLAN_COUNT // 2  # witnesses carried through a transform U


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
        # is_basic(h) reads the fact dual_generator recorded; the Smith
        # form proves it
        assert is_reduced(h) and smith_is_basic(h)
        assert (g.reverse() @ h.T).is_zero()
        assert_popov(h)


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


REPO = Path(__file__).resolve().parents[1]
# III-T6 q=5 (n, k, t) = (5, 1, 1), the small row of the benchmark
SMALL_ROW = ("III-T6", 5, {"n": 5, "k": 1, "t": 1})
REFUSED_ENCODERS = (
    "q=2\n(1) (1)\n(1) (1)\n",  # a repeated row
    "q=2\n(1) (0,1)\n(0) (0)\n",  # a zero row
    "q=2\n(1,1)\n",  # square, determinant 1 + D
    "q=2\n(0,1) (0,0,1)\n",  # gcd D: no constant right inverse
)


def aqcc_bindings(fn):
    """Every (module, name) of the aqcc package that binds fn."""
    return [
        (mod, name)
        for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "aqcc"
        for name, value in list(vars(mod).items()) if value is fn
    ]


def test_certifier_runs_without_the_smith_form(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Smith form was called")

    for fn in (convo.smith_form, convo.rank_poly):
        for mod, name in aqcc_bindings(fn):
            monkeypatch.setattr(mod, name, forbidden)

    family, q, kw = SMALL_ROW
    for effort in ("structure", "desk"):
        golden = REPO / "tests" / "golden" / effort / "III-T6_q5_n5_k1_t1.json"
        text = certify_params(FamilyParams(family, q, **kw), effort=effort).to_json()
        assert text == golden.read_text()

    g = parse_poly_matrix((REPO / "perfbench" / "encoders" / "r2m2.txt").read_text())
    assert g._right is None  # basic by its dual, not by a split witness
    assert free_distance(g).lower == 5

    f = g.field
    outer = PolyMatrix(f, [[(1,), (0, 1)], [(0, 1), (1, 0, 1)]])  # leading rows agree
    assert not is_reduced(outer)
    inner = PolyMatrix(f, [[(1, 1), (1, 1, 1)]])  # the sum of the two rows
    assert contains(outer, inner) == PolyMatrix(f, [[(1,), (1,)]])

    for i, text in enumerate(REFUSED_ENCODERS):
        path = tmp_path / f"m{i}.txt"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["distance", str(path)]) == 4


def count_calls(monkeypatch, names) -> dict:
    """Count calls to the named convo or matrix functions under every aqcc
    binding."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(convo, name, None) or getattr(matrix, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod, attr in aqcc_bindings(fn):
            monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("effort", ["structure", "desk"])
def test_certificate_builds_each_dual_where_it_is_read(monkeypatch, effort):
    calls = count_calls(monkeypatch, ("solve_left",))
    built = []  # (generator, its degree gap when its dual was asked for)
    dual = convo.dual_generator

    def spy(m):
        built.append((m, m._gap))
        return dual(m)

    for mod, name in aqcc_bindings(dual):
        monkeypatch.setattr(mod, name, spy)
    family, q, kw = SMALL_ROW
    cert = certify_params(FamilyParams(family, q, **kw), effort=effort)
    # G1 and G2 leave their splits with gap 0, proved by the stack right
    # inverse R_S; derive_aqcc builds H1 = dual(G1), and G2's dual is built
    # only where the chain leaves d2f open, which at desk it does not here;
    # containment divides by G1's leading echelon with no scalar solve
    g2 = cert.stabilizer.g2
    assert cert.data["distances"]["convo"]["d2f_dual"]["exact"] == (effort == "desk")
    assert [(id(m), gap) for m, gap in built] == [(id(cert.g1), 0)]
    assert cert.g1._gap == g2._gap == 0
    assert calls == {"solve_left": 0}
    assert cert.g1._right is not None and g2._right is not None


@pytest.mark.parametrize("effort", ["structure", "desk"])
def test_leading_echelon_is_computed_once_per_generator(monkeypatch, effort):
    # G1 and G2 leave their splits with R_L, so neither eliminates [L | I];
    # the inner dual's would be read by its free distance, which the chain
    # closes here at desk without building that dual
    owners, leads = [], []
    leading_row_matrix = PolyMatrix.leading_row_matrix

    def spy(m):
        out = leading_row_matrix(m)
        owners.append(m)
        leads.append(out.a)
        return out

    monkeypatch.setattr(PolyMatrix, "leading_row_matrix", spy)
    inputs = []
    rref = matrix._rref

    def recorded(field, a):
        inputs.append(np.array(a))
        return rref(field, a)

    monkeypatch.setattr(matrix, "_rref", recorded)
    family, q, kw = SMALL_ROW
    cert = certify_params(FamilyParams(family, q, **kw), effort=effort)
    eliminated = [a for a in inputs for lead in leads
                  if np.array_equal(a, np.concatenate([lead, np.eye(len(lead), dtype=np.int32)], 1))]
    assert len(eliminated) == len(owners) == 0
    assert len({id(m) for m in owners}) == len(owners)
    g2 = cert.stabilizer.g2
    assert not any(m is cert.g1 or m is g2 for m in owners)
    assert all(isinstance(g._lead, np.ndarray) for g in (cert.g1, g2))


def test_free_distance_of_a_dual_reads_its_basicness(monkeypatch):
    family, q, kw = SMALL_ROW
    g1, g2 = layout(FamilyParams(family, q, **kw)).generators()
    duals = [dual_generator(g1), dual_generator(g2)]
    calls = count_calls(monkeypatch, ("dual_generator", "solve_left"))
    results = [free_distance(h) for h in duals]
    assert calls == {"dual_generator": 0, "solve_left": 0}
    # an equal matrix built from the coefficients carries no recorded fact,
    # so each builds its own dual once, with no scalar solve
    copies = [PolyMatrix.from_coefficients(h.field, h.c) for h in duals]
    assert [free_distance(h) for h in copies] == results
    assert calls == {"dual_generator": 2, "solve_left": 0}


def test_free_distance_of_seedless_encoders_builds_one_dual_each(monkeypatch):
    # an encoder read from text carries no split witness: its basicness is
    # the gap its one minimal dual records, with no scalar solve
    paths = sorted((REPO / "perfbench" / "encoders").glob("*.txt"))
    assert len(paths) == 14
    gens = [parse_poly_matrix(path.read_text()) for path in paths]
    copies = [PolyMatrix.from_coefficients(g.field, g.c) for g in gens]
    calls = count_calls(monkeypatch, ("dual_generator", "solve_left"))
    for copy in copies:
        assert copy._right is None
        free_distance(copy)
    assert calls == {"dual_generator": 14, "solve_left": 0}


def count_eliminations(monkeypatch) -> list:
    """The shape of every matrix matrix._rref eliminates from now on."""
    shapes = []
    rref = matrix._rref

    def counted(field, a):
        shapes.append(np.shape(a))
        return rref(field, a)

    monkeypatch.setattr(matrix, "_rref", counted)
    return shapes


def test_split_to_generator_carries_its_stack_right_inverse(monkeypatch):
    # with no seed, the blocks' own rows S are the seed: one elimination of
    # [S | I] proves them independent and gives R_S, from which G reads
    # basic and reduced with no elimination of its own
    family, q, kw = SMALL_ROW
    plans = (layout(FamilyParams(family, q, **kw)), selftest._random_plan(random.Random(5)))
    shapes = count_eliminations(monkeypatch)
    for plan in plans:
        for blocks, placements in ((plan.blocks1, plan.placements1), (plan.blocks2, None)):
            shapes.clear()
            g = split_to_generator(blocks, placements)
            rows = sum(b.rows for b in blocks)
            assert shapes == [(rows, g.cols + rows)]
            stack = g.stack.a
            live = stack.any(axis=1)
            assert live.sum() == rows
            product = g.field._vmatmul(stack, g._right)
            assert np.array_equal(product, np.diag(live).astype(np.int32))
            assert is_basic(g) and is_reduced(g)
            assert len(shapes) == 1


def test_zeroed_split_witness_fails_degree_gap(monkeypatch):
    # with no seed, the blocks' own rows S are the seed, and the right
    # inverse of S is confirmed where it is formed: with column 0 of its
    # right block zeroed, split_to_generator refuses it
    family, q, kw = SMALL_ROW
    plan = layout(FamilyParams(family, q, **kw))
    for blocks, placements in ((plan.blocks1, plan.placements1), (plan.blocks2, None)):
        with monkeypatch.context() as mp:
            zeroed_right_block(mp, np.concatenate([b.a for b in blocks]), 0)
            with pytest.raises(AssertionError, match="right inverse witness failed"):
                split_to_generator(blocks, placements)


def times_one_plus_d_all(m: PolyMatrix) -> PolyMatrix:
    """Every row times 1 + D: still reduced, no longer basic."""
    eye = np.eye(m.rows, dtype=np.int32)
    return PolyMatrix.from_coefficients(m.field, [eye, eye]) @ m


@pytest.mark.parametrize("effort", ["structure", "desk"])
@pytest.mark.parametrize("culprit", ["inner", "outer"])
def test_non_basic_generator_is_refused(monkeypatch, effort, culprit):
    """G2, then both G1 and G2, times 1 + D: the first non-basic one is named."""
    generators = LayoutPlan.generators

    def scaled_generators(plan):
        g1, g2 = generators(plan)
        return (times_one_plus_d_all(g1) if culprit == "outer" else g1, times_one_plus_d_all(g2))

    monkeypatch.setattr(LayoutPlan, "generators", scaled_generators)
    family, q, kw = SMALL_ROW
    with pytest.raises(NotBasic, match=f"^{culprit} generator is not basic"):
        certify_params(FamilyParams(family, q, **kw), effort=effort)
