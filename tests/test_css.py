import functools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from aqcc import FamilyParams, convo, selftest
from aqcc.certify import Budgets, certify_plan
from aqcc.convo import PolyMatrix, block_toeplitz
from aqcc.css import (
    assemble_stabilizer,
    build_nested_pair,
    derive_aqcc,
    semi_infinite_expand,
)
from aqcc.errors import (
    ContainmentFailed,
    ContainmentUnverified,
    FieldMismatch,
    RankDeficient,
    SymplecticViolation,
    TooFewFrames,
    ZeroLogicalDimension,
)
from aqcc.families import construction_i_plan, demo_vectors, layout
from aqcc.gf import FiniteField
from aqcc.matrix import field_from_order

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def f2():
    return FiniteField.get(2, 1)


@pytest.fixture(scope="module")
def pair(f2):
    outer = PolyMatrix(f2, [[(1,), (), (1,)], [(), (1,), (0, 1)]])
    inner = PolyMatrix(f2, [[(1,), (1,), (1, 1)]])
    return build_nested_pair(outer, inner)


def full_residual(x_part: PolyMatrix, z_part: PolyMatrix) -> PolyMatrix:
    """X(D) rev(Z)^T - Z(D) rev(X)^T, both reversed at a common degree: the
    general residual, zero exactly when the rows of (X|Z) pairwise commute
    over all time shifts.  The reference for assemble_stabilizer's one block."""
    mu = max(x_part.max_degree, z_part.max_degree, 0)
    return x_part @ z_part.reverse(mu).T - z_part @ x_part.reverse(mu).T


def full_residual_refusal(h1: PolyMatrix, g2: PolyMatrix) -> str | None:
    """The refusal the full residual of [h1; 0] and [0; g2] gives: its
    first nonzero entry (i, j) and that entry's coefficients, or None."""
    x = np.zeros((max(len(h1.c), len(g2.c)), h1.rows + g2.rows, h1.cols), dtype=np.int32)
    z = x.copy()
    x[: len(h1.c), : h1.rows] = h1.c
    z[: len(g2.c), h1.rows :] = g2.c
    f = h1.field
    res = full_residual(PolyMatrix.from_coefficients(f, x), PolyMatrix.from_coefficients(f, z))
    if res.is_zero():
        return None
    i, j = np.argwhere(res.c.any(axis=0))[0].tolist()
    return f"rows {i} and {j} have pairing {np.trim_zeros(res.c[:, i, j], 'b').tolist()}"


def one_block_refusal(h1: PolyMatrix, g2: PolyMatrix) -> str | None:
    try:
        assemble_stabilizer(h1, g2)
    except SymplecticViolation as exc:
        return str(exc)
    return None


class TestSymplectic:
    def test_row_commutes_with_itself(self, f2):
        one = PolyMatrix(f2, [[(1,)]])
        assert full_residual(one, one).is_zero()

    def test_shifted_pair_fails(self, f2):
        x = PolyMatrix(f2, [[(1,)]])
        z = PolyMatrix(f2, [[(0, 1)]])
        assert full_residual(x, z).e[0][0] == (1, 0, 1)
        with pytest.raises(SymplecticViolation, match=r"^rows 0 and 1 have pairing \[1\]$"):
            assemble_stabilizer(x, z)

    def test_field_mismatch(self, f2):
        other = PolyMatrix(FiniteField.get(3, 1), [[(1,)]])
        with pytest.raises(FieldMismatch):
            assemble_stabilizer(PolyMatrix(f2, [[(1,)]]), other)

    def test_shape_mismatch(self, f2):
        with pytest.raises(ValueError):
            assemble_stabilizer(PolyMatrix(f2, [[(1,)]]), PolyMatrix.zeros(f2, 1, 2))


SWAPS_PER_PLAN = 5


def differential_pairs():
    """(h1, g2) as derive_aqcc assembles them, for the reference rows, the
    extra stabilizers and the seeded split plans, each with its reduced G2
    and SWAPS_PER_PLAN copies with two columns swapped."""
    (seed,) = selftest.check_split_plans.__defaults__
    rng = random.Random(seed)
    rows = [row[:3] for row in selftest.REFERENCE_ROWS] + list(selftest.EXTRA_STABILIZERS)
    plans = [layout(FamilyParams(family, q, **kw)) for family, q, kw in rows]
    plans += [selftest._random_plan(rng) for _ in range(selftest.SPLIT_PLANS)]
    swaps = random.Random(seed)
    for plan in plans:
        g1, g2 = plan.generators()
        h1, g2 = convo.dual_generator(g1), convo.reduce(g2)
        yield h1, g2
        for _ in range(SWAPS_PER_PLAN):
            cols = list(range(g2.cols))
            j1, j2 = swaps.sample(cols, 2)
            cols[j1], cols[j2] = j2, j1
            yield h1, PolyMatrix.from_coefficients(g2.field, g2.c[:, :, cols])


def test_one_block_refuses_as_the_full_residual():
    """assemble_stabilizer computes one block of the residual; it refuses
    exactly the pairs the full residual refuses, with the same text."""
    verdicts = []
    for h1, g2 in differential_pairs():
        want = full_residual_refusal(h1, g2)
        assert one_block_refusal(h1, g2) == want
        verdicts.append(want)
    refused = [v for v in verdicts if v is not None]
    assert (len(verdicts), len(refused)) == (1398, 1140)
    # every unswapped pair is accepted
    assert verdicts[:: SWAPS_PER_PLAN + 1] == [None] * 233


class TestAssembly:
    def test_witness_reproduces_inner(self, pair):
        assert pair.witness.e == (((1,), (1,)),)
        assert pair.witness @ pair.outer == pair.inner

    def test_other_fields_and_lengths_are_refused(self, f2, pair):
        # contains makes build_nested_pair's field and length checks
        with pytest.raises(FieldMismatch):
            build_nested_pair(pair.outer, PolyMatrix(FiniteField.get(3, 1), [[(1,), (1,), ()]]))
        with pytest.raises(ValueError, match="^column counts differ: 3 vs 2$"):
            build_nested_pair(pair.outer, PolyMatrix(f2, [[(1,), (1,)]]))

    def test_containment_failure(self, f2, pair):
        stray = PolyMatrix(f2, [[(1,), (), ()]])
        with pytest.raises(ContainmentFailed):
            build_nested_pair(pair.outer, stray)

    def test_wrong_witness_is_unverified(self, f2, pair, monkeypatch):
        wrong = PolyMatrix(f2, [[(1,), ()]])
        monkeypatch.setattr(convo, "_membership_reduced", lambda outer, inner: wrong)
        with pytest.raises(ContainmentUnverified):
            convo.contains(pair.outer, pair.inner)
        with pytest.raises(ContainmentUnverified):
            build_nested_pair(pair.outer, pair.inner)

    def test_rank_deficient_outer(self, f2):
        # the inner row is an outer row, but the dependent outer rows are
        # refused before any row selection
        outer = PolyMatrix(f2, [[(1,), (1,)], [(1,), (1,)]])
        with pytest.raises(RankDeficient):
            build_nested_pair(outer, PolyMatrix(f2, [[(1,), (1,)]]))

    def test_empty_inner_rejected(self, f2, pair):
        with pytest.raises(ValueError):
            build_nested_pair(pair.outer, PolyMatrix.zeros(f2, 0, 3))

    def test_block_layout(self, f2):
        h1 = PolyMatrix(f2, [[(0, 1), (1,), (0, 1)]])
        g2 = PolyMatrix(f2, [[(1,), (1,), (1, 1)]])
        stab = assemble_stabilizer(h1, g2)
        assert stab.rows == 2 and stab.n == 3
        # row 0 is h1 on the X side, row 1 g2 on the Z side; the first block
        # row of a window holds both rows' whole band, each frame X before Z,
        # and the other side of each row is zero
        band = semi_infinite_expand(stab, 2).matrix.a[:2].reshape(2, 2, 2, 3)  # row, frame, side, col
        assert stab.h1.e[0] == h1.e[0]
        assert not band[1, :, 0].any()
        assert stab.g2.e[0] == g2.e[0]
        assert not band[0, :, 1].any()
        assert stab.mu_star == 1
        assert assemble_stabilizer(h1, PolyMatrix.zeros(f2, 1, 3)).gamma == 1  # a zero row adds 0
        assert stab.gamma == 2

    def test_blocks_are_kept_as_given(self, f2, monkeypatch):
        h1 = PolyMatrix(f2, [[(0, 1), (1,), (0, 1)]])
        g2 = PolyMatrix(f2, [[(1,), (1,), (1, 1)]])

        def refused(*args):
            raise AssertionError("assemble_stabilizer built a padded half")

        monkeypatch.setattr(PolyMatrix, "from_coefficients", refused)
        stab = assemble_stabilizer(h1, g2)
        assert stab.h1 is h1 and stab.g2 is g2

    def test_violation_detected(self, f2):
        h1 = PolyMatrix(f2, [[(0, 1), (1,), (0, 1)]])
        stray = PolyMatrix(f2, [[(1,), (), ()]])
        with pytest.raises(SymplecticViolation):
            assemble_stabilizer(h1, stray)


class TestExpansion:
    def test_window_shape_and_rank(self, pair):
        exp = semi_infinite_expand(derive_aqcc(pair), 3)
        assert exp.matrix.shape == (6, 18)
        assert exp.rank == 6 and exp.defect == 0

    def test_longer_window(self, pair):
        exp = semi_infinite_expand(derive_aqcc(pair), 4)
        assert exp.rank == 8 and exp.defect == 0

    def test_band_placement(self, pair):
        stab = derive_aqcc(pair)
        exp = semi_infinite_expand(stab, 3)
        c1 = np.zeros((stab.rows, 2 * stab.n), dtype=np.int32)
        c1[: stab.h1.rows, : stab.n] = stab.h1.coefficient(1).a
        c1[stab.h1.rows :, stab.n :] = stab.g2.coefficient(1).a
        assert np.array_equal(exp.matrix.a[0:2, 6:12], c1)
        # block below the band stays zero
        assert not exp.matrix.a[2:4, 0:6].any()

    def test_too_few_frames(self, pair):
        with pytest.raises(TooFewFrames):
            semi_infinite_expand(derive_aqcc(pair), 1)


def reference_and_split_plans() -> list:
    """The plans of the reference rows, then the seeded split plans."""
    (seed,) = selftest.check_split_plans.__defaults__
    rng = random.Random(seed)
    plans = [layout(FamilyParams(family, q, **kw)) for family, q, kw, *_ in selftest.REFERENCE_ROWS]
    return plans + [selftest._random_plan(rng) for _ in range(selftest.SPLIT_PLANS)]


class TestSelectionWitness:
    """Every G2 row is a G1 row, so contains returns the 0/1 selection of
    them, the same X that the predictable-degree division finds."""

    def test_selection_is_the_division_witness(self):
        plans = reference_and_split_plans()
        assert len(plans) == 225
        for g1, g2 in (plan.generators() for plan in plans):
            x = build_nested_pair(g1, g2).witness
            assert x == convo._selection(g1, g2) == convo._membership_reduced(g1, g2)
            assert x.max_degree == 0 and set(np.unique(x.c)) <= {0, 1}
            assert (x.c[0].sum(axis=1) == 1).all() and x @ g1 == g2

    def test_permuted_rows_give_the_permuted_selection(self):
        rng = random.Random(5)
        for g1, _ in (plan.generators() for plan in reference_and_split_plans()[::9]):
            perm = rng.sample(range(g1.rows), g1.rows)
            inner = PolyMatrix.from_coefficients(g1.field, g1.c[:, perm])
            want = np.zeros((1, g1.rows, g1.rows), dtype=np.int32)
            want[0, range(g1.rows), perm] = 1
            assert convo.contains(g1, inner) == PolyMatrix.from_coefficients(g1.field, want)

    def test_reference_rows_run_no_division(self, monkeypatch):
        def refused(outer, inner):
            raise AssertionError("the containment division ran")

        monkeypatch.setattr(convo, "_membership_reduced", refused)
        for family, q, kw, *_ in selftest.REFERENCE_ROWS:
            cert = certify_plan(layout(FamilyParams(family, q, **kw)), effort="structure")
            assert cert.data["checks"]["containment"] == "verified"

    def test_a_mutated_row_fails_through_the_division(self, monkeypatch):
        divisions = []
        division = convo._membership_reduced

        def counted(outer, inner):
            divisions.append(inner.rows)
            return division(outer, inner)

        monkeypatch.setattr(convo, "_membership_reduced", counted)
        plan = layout(FamilyParams("III-T8", 7, n=7, k=2, t=2))
        with pytest.raises(ContainmentFailed):
            certify_plan(plan, effort="structure", fault="mutate-row")
        assert divisions


@functools.cache
def certified_stabilizers() -> tuple:
    """(label, stabilizer) of the structure certificates of the reference
    rows and the seeded split plans.  The stabilizer does not depend on
    effort, so structure certificates show it."""
    return tuple((plan.params.label(), certify_plan(plan, effort="structure").stabilizer)
                 for plan in reference_and_split_plans())


def test_certified_stabilizers_expand_without_defect():
    """The certifier ranks no expansion: its window is block upper
    triangular with diagonal blocks [H1(0) 0; 0 G2(0)], of full row rank
    because H1 is a minimal basis and G2 is basic."""
    for label, stab in certified_stabilizers():
        assert semi_infinite_expand(stab, stab.mu_star + 2).defect == 0, label


def padded_window(stab, frames: int) -> np.ndarray:
    """The window of the stabilizer's halves X = [H1; 0] and Z = [0; G2],
    each zero-padded to (mu* + 1, rows, n) and made a PolyMatrix, their
    coefficients side by side in each frame: the reference expansion."""
    h1, g2 = stab.h1, stab.g2
    mu = max(h1.max_degree, g2.max_degree, 0)
    parts = np.zeros((2, mu + 1, h1.rows + g2.rows, h1.cols), dtype=np.int32)
    parts[0, : len(h1.c), : h1.rows] = h1.c
    parts[1, : len(g2.c), h1.rows :] = g2.c
    x, z = (PolyMatrix.from_coefficients(h1.field, c) for c in parts)
    coeffs = np.concatenate([x.coefficients(mu + 1), z.coefficients(mu + 1)], axis=2)
    return block_toeplitz(coeffs, frames, frames)


def test_expansion_from_the_blocks_matches_the_padded_halves():
    stabs = certified_stabilizers()
    assert len(stabs) == len(selftest.REFERENCE_ROWS) + selftest.SPLIT_PLANS == 225
    for label, stab in stabs:
        got = semi_infinite_expand(stab, stab.mu_star + 2).matrix.a
        want = padded_window(stab, stab.mu_star + 2)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), label


def side_rule(data) -> tuple[int, int]:
    """Check that the certificate's exact dz and dx follow its two side
    brackets and return the larger and the smaller lower bound.  dz is
    the larger side distance, so it is exact when the larger lower bound
    meets the larger upper bound, and dx likewise with the smaller ones;
    a missing upper bound counts as infinite."""
    sides = data["distances"]["convo"]["d1f"], data["distances"]["convo"]["d2f_dual"]
    lowers = [b["lower"] for b in sides]
    uppers = [math.inf if b["upper"] is None else b["upper"] for b in sides]
    aqcc = data["distances"]["aqcc"]
    for key, pick in (("dz_exact", max), ("dx_exact", min)):
        if pick(lowers) == pick(uppers):
            assert aqcc[key] == pick(lowers), key
        else:
            assert key not in aqcc, key
    return max(lowers), min(lowers)


class TestDerivation:
    def test_parameters(self, pair):
        stab = derive_aqcc(pair)
        assert (stab.n, stab.logical, stab.gamma, stab.mu_star) == (3, 1, 2, 1)
        assert stab.h1.e == (((0, 1), (1,), (0, 1)),)
        # the inner dual is built where its free distance is searched
        assert not hasattr(stab, "v2_dual")

    def test_zero_logical_dimension(self, f2):
        outer = PolyMatrix(f2, [[(1,), (0, 1)]])
        inner = PolyMatrix(f2, [[(0, 1), (0, 0, 1)]])
        p = build_nested_pair(outer, inner)
        with pytest.raises(ZeroLogicalDimension):
            derive_aqcc(p)

    @pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*/*.json")),
                             ids=lambda p: f"{p.parent.name}-{p.stem}")
    def test_golden_exact_distances_follow_the_sides(self, path):
        side_rule(json.loads(path.read_text()))

    @pytest.mark.parametrize("effort, state, exact, sides", [
        ("desk", Budgets().state, {"dz_exact": 6, "dx_exact": 2}, (6, 2)),
        ("desk", 1, {}, (2, 1)),  # d1f is [1, 6] and d2f_dual [2, 2]: both sides stay open
        ("structure", Budgets().state, {}, (1, 1)),  # nothing searched: both lowers are 1
    ], ids=[f"{Budgets().state}-exact0", "1-exact1", "structure"])
    def test_construction_i_tuple_states_the_side_lowers(self, effort, state, exact, sides):
        f5 = field_from_order(5)
        plan = construction_i_plan(f5, demo_vectors(f5, 9, [2, 2, 2, 1], seed=3), [2, 2, 2, 1])
        data = certify_plan(plan, effort=effort, budgets=Budgets(state=state)).data
        dz, dx = side_rule(data)
        assert (dz, dx) == sides
        assert data["tuple"] == f"[(9,2,1;4,dz>={dz}/dx>={dx})]_5"
        assert {k: v for k, v in data["distances"]["aqcc"].items() if k.endswith("_exact")} == exact
