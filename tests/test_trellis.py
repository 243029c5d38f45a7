import numpy as np
import pytest

from aqcc.errors import AqccError, CatastrophicEncoder, RankDeficient
from aqcc.block import rs_parity
from aqcc.convo import PolyMatrix, split_to_generator
from aqcc.gf import FiniteField
from aqcc.matrix import MatrixGF
from aqcc.trellis import FreeDistanceResult, free_distance


@pytest.fixture(scope="module")
def gf2():
    return FiniteField.get(2, 1)


@pytest.fixture(scope="module")
def gf3():
    return FiniteField.get(3, 1)


class TestExactSearch:
    def test_unit_delay_pair_gf2(self, gf2):
        r = free_distance(PolyMatrix(gf2, [[(1,), (0, 1)]]))
        assert r.exact and r.lower == 2 and r.method == "dijkstra"
        assert r.gamma == 1

    def test_two_output_encoder(self, gf2):
        r = free_distance(PolyMatrix(gf2, [[(1,), (1, 1)]]))
        assert r.exact and r.lower == 3

    def test_rate_half_memory_two(self, gf2):
        # generators 1 + D**2 and 1 + D + D**2
        r = free_distance(PolyMatrix(gf2, [[(1, 0, 1), (1, 1, 1)]]))
        assert r.exact and r.lower == 5
        assert r.gamma == 2

    def test_unit_delay_pair_gf3(self, gf3):
        r = free_distance(PolyMatrix(gf3, [[(1,), (0, 1)]]))
        assert r.exact and r.lower == 2

    def test_zero_memory_becomes_block_distance(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (), (1,)], [(), (1,), (2,)]])
        r = free_distance(g)
        assert r.method == "block" and r.gamma == 0
        assert r.exact and r.lower == 2

    def test_reduction_happens_first(self, gf2):
        # rows [1+D, D], [1, 1] reduce to memory zero
        g = PolyMatrix(gf2, [[(1, 1), (0, 1)], [(1,), (1,)]])
        r = free_distance(g)
        assert r.method == "block"
        assert r.exact and r.lower == 1

    def test_invariance_under_row_operations(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (), (0, 1)], [(), (1,), (0, 2)]])
        d1 = free_distance(g).lower
        # swap rows and add D times one row to the other
        u = PolyMatrix(gf3, [[(), (1,)], [(1,), (0, 1)]])
        d2 = free_distance(u @ g).lower
        assert d1 == d2


@pytest.fixture(scope="module")
def structure():
    return rs_parity(FiniteField.get(7, 1), 6, 4, b=1)


class TestSplitOracles:
    """Frozen exact values for splits of the [6, 3, 4] code over GF(7)."""

    def test_two_block_split(self, structure):
        s = structure
        f = s.field
        b0 = MatrixGF(f, np.concatenate([s.row_groups[1], s.row_groups[2]]))
        b1 = MatrixGF(f, s.row_groups[3])
        g = split_to_generator([b0, b1])
        hint = s.code.dual().min_distance().lower
        assert hint == 4
        r = free_distance(g, lower_hint=hint)
        assert r.exact and r.lower == 6
        assert r.method == "dijkstra"

    def test_single_row_blocks(self, structure):
        s = structure
        f = s.field
        g = split_to_generator([MatrixGF(f, s.row_groups[c]) for c in (1, 2, 3)])
        r = free_distance(g)
        assert r.exact and r.lower == 18
        assert r.gamma == 2

    def test_lower_hint_is_respected(self, structure):
        s = structure
        f = s.field
        b0 = MatrixGF(f, np.concatenate([s.row_groups[1], s.row_groups[2]]))
        b1 = MatrixGF(f, s.row_groups[3])
        g = split_to_generator([b0, b1])
        with pytest.raises(AqccError):
            free_distance(g, lower_hint=7)  # exact answer is 6


class TestGuards:
    def test_catastrophic_rejected(self, gf2):
        g = PolyMatrix(gf2, [[(1, 1), (1, 0, 1)]])  # common factor 1 + D
        with pytest.raises(CatastrophicEncoder):
            free_distance(g)

    def test_rank_deficient_rejected(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (2,)], [(2,), (4 % 3,)]])
        with pytest.raises(RankDeficient):
            free_distance(g)

    def test_budget_fallback_brackets(self, gf2):
        g = PolyMatrix(gf2, [[(1, 0, 1), (1, 1, 1)]])
        r = free_distance(g, state_budget=1)
        assert r.method == "bounded"
        assert not r.exact
        assert r.lower == 1 and r.upper == 5  # single row weight
        assert r.witness is not None

    def test_budget_fallback_can_close(self, gf2):
        g = PolyMatrix(gf2, [[(1, 0, 1), (1, 1, 1)]])
        r = free_distance(g, state_budget=1, lower_hint=5)
        assert r.method == "bounded" and r.exact and r.lower == 5

    def test_inconsistent_hint_detected_in_bounded_mode(self, gf2):
        g = PolyMatrix(gf2, [[(1, 0, 1), (1, 1, 1)]])
        with pytest.raises(AqccError):
            free_distance(g, state_budget=1, lower_hint=6)

    @pytest.mark.parametrize("budgets", [{"state_budget": 0}, {"work_budget": -1}])
    def test_budgets_below_one_rejected(self, gf2, budgets):
        with pytest.raises(ValueError):
            free_distance(PolyMatrix(gf2, [[(1,), (0, 1)]]), **budgets)

    def test_result_formatting(self):
        assert "d_free = 3" in str(FreeDistanceResult(3, 3, "dijkstra", 1))
        assert "<=" in str(FreeDistanceResult(2, 4, "bounded", 1))
