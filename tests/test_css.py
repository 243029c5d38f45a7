import random

import numpy as np
import pytest

from aqcc import FamilyParams, convo, selftest
from aqcc.certify import certify_plan
from aqcc.convo import PolyMatrix
from aqcc.css import (
    assemble_stabilizer,
    build_nested_pair,
    check_symplectic,
    derive_aqcc,
    semi_infinite_expand,
    symplectic_residual,
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
from aqcc.families import layout
from aqcc.gf import FiniteField
from aqcc.block import DistanceBound
from aqcc.trellis import free_distance


@pytest.fixture(scope="module")
def f2():
    return FiniteField.get(2, 1)


@pytest.fixture(scope="module")
def pair(f2):
    outer = PolyMatrix(f2, [[(1,), (), (1,)], [(), (1,), (0, 1)]])
    inner = PolyMatrix(f2, [[(1,), (1,), (1, 1)]])
    return build_nested_pair(outer, inner)


class TestSymplectic:
    def test_row_commutes_with_itself(self, f2):
        one = PolyMatrix(f2, [[(1,)]])
        assert check_symplectic(one, one)

    def test_shifted_pair_fails(self, f2):
        x = PolyMatrix(f2, [[(1,)]])
        z = PolyMatrix(f2, [[(0, 1)]])
        assert not check_symplectic(x, z)
        assert symplectic_residual(x, z).entry(0, 0) == (1, 0, 1)

    def test_field_mismatch(self, f2):
        other = PolyMatrix(FiniteField.get(3, 1), [[(1,)]])
        with pytest.raises(FieldMismatch):
            symplectic_residual(PolyMatrix(f2, [[(1,)]]), other)

    def test_shape_mismatch(self, f2):
        with pytest.raises(ValueError):
            symplectic_residual(PolyMatrix(f2, [[(1,)]]), PolyMatrix.zeros(f2, 1, 2))


class TestAssembly:
    def test_witness_reproduces_inner(self, pair):
        assert pair.witness.e == (((1,), (1,)),)
        assert pair.witness @ pair.outer == pair.inner

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
        assert stab.x_part.e[0] == h1.e[0]
        assert all(p == () for p in stab.x_part.e[1])
        assert stab.z_part.e[1] == g2.e[0]
        assert all(p == () for p in stab.z_part.e[0])
        assert stab.mu_star == 1
        assert stab.row_degrees == (1, 1)
        assert stab.gamma == 2

    def test_violation_detected(self, f2):
        h1 = PolyMatrix(f2, [[(0, 1), (1,), (0, 1)]])
        stray = PolyMatrix(f2, [[(1,), (), ()]])
        with pytest.raises(SymplecticViolation):
            assemble_stabilizer(h1, stray)


class TestExpansion:
    def test_window_shape_and_rank(self, pair):
        par = derive_aqcc(pair)
        exp = semi_infinite_expand(par.stabilizer, 3)
        assert exp.matrix.shape == (6, 18)
        assert exp.rank == 6 and exp.defect == 0

    def test_longer_window(self, pair):
        par = derive_aqcc(pair)
        exp = semi_infinite_expand(par.stabilizer, 4)
        assert exp.rank == 8 and exp.defect == 0

    def test_band_placement(self, pair):
        par = derive_aqcc(pair)
        stab = par.stabilizer
        exp = semi_infinite_expand(stab, 3)
        c1 = np.hstack([stab.x_part.coefficient(1).a, stab.z_part.coefficient(1).a])
        assert np.array_equal(exp.matrix.a[0:2, 6:12], c1)
        # block below the band stays zero
        assert not exp.matrix.a[2:4, 0:6].any()

    def test_too_few_frames(self, pair):
        par = derive_aqcc(pair)
        with pytest.raises(TooFewFrames):
            semi_infinite_expand(par.stabilizer, 1)


def test_certified_stabilizers_expand_without_defect():
    """The certifier ranks no expansion: its window is block upper
    triangular with diagonal blocks [H1(0) 0; 0 G2(0)], of full row rank
    because H1 is a minimal basis and G2 is basic.  The stabilizer does
    not depend on effort, so structure certificates show it."""
    (seed,) = selftest.check_split_plans.__defaults__
    rng = random.Random(seed)
    plans = [layout(FamilyParams(family, q, **kw)) for family, q, kw, *_ in selftest.REFERENCE_ROWS]
    plans += [selftest._random_plan(rng) for _ in range(selftest.SPLIT_PLANS)]
    for plan in plans:
        par = certify_plan(plan, effort="structure").aqcc
        assert semi_infinite_expand(par.stabilizer, par.mu_star + 2).defect == 0, plan.params.label()


class TestDerivation:
    def test_parameters(self, pair):
        par = derive_aqcc(pair)
        assert (par.n, par.logical, par.gamma, par.mu_star) == (3, 1, 2, 1)
        assert par.h1.e == (((0, 1), (1,), (0, 1)),)
        assert par.v2_dual.rows == 2
        assert par.dz is None and par.dx is None

    def test_zero_logical_dimension(self, f2):
        outer = PolyMatrix(f2, [[(1,), (0, 1)]])
        inner = PolyMatrix(f2, [[(0, 1), (0, 0, 1)]])
        p = build_nested_pair(outer, inner)
        with pytest.raises(ZeroLogicalDimension):
            derive_aqcc(p)

    def test_distance_normalization(self, pair):
        d1 = free_distance(pair.outer)
        base = derive_aqcc(pair)
        d2 = free_distance(base.v2_dual)
        assert d1.lower == 2 and d2.lower == 2
        par = base.with_distances(d1, d2)
        assert par.dz_side == "v1"  # ties keep the outer side on Z
        big = DistanceBound(3, 3, "dijkstra", "dijkstra")
        par = base.with_distances(d1, big)
        assert par.dz_side == "v2perp"
        assert par.dz.lower == 3 and par.dx.lower == 2

    def test_distance_floors_follow_the_lower_bound(self, pair):
        # dz takes its lower bound from v2perp and its upper bound from v1
        v1 = DistanceBound(2, 9, "bounded", "d_dual")
        v2perp = DistanceBound(4, 5, "bounded", "chain")
        par = derive_aqcc(pair).with_distances(v1, v2perp)
        assert (par.dz.lower, par.dz.upper, par.dz.floor) == (4, 9, "chain")
        assert (par.dx.lower, par.dx.upper, par.dx.floor) == (2, 5, "d_dual")
        assert par.dz_side == "undecided"
