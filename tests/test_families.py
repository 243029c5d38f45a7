"""Family layouts, closed-form tuples, and the certification pipeline."""

import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from aqcc import families, matrix, selftest
from aqcc.block import BlockCode, bch_parity, grs_build, rs_parity
from aqcc.certify import (
    Budgets,
    certify_params,
    certify_plan,
)
from aqcc.convo import PolyMatrix, is_basic, is_reduced
from aqcc.errors import (
    AqccError,
    ContainmentFailed,
    IndependenceViolated,
    ParamOutOfRange,
    PartitionInvalid,
    RankConditionViolated,
    RankDeficient,
    SymplecticViolation,
)
from aqcc.families import (
    FAMILIES,
    FamilyParams,
    LayoutPlan,
    construction_i_plan,
    demo_vectors,
    enumerate_family,
    expected_tuple,
    layout,
    validate_params,
)
from aqcc.matrix import MatrixGF, field_from_order
from aqcc.selftest import REFERENCE_ROWS


class TestValidation:
    def test_out_of_family_field(self):
        with pytest.raises(ParamOutOfRange, match="2\\^s"):
            validate_params(FamilyParams("II-T2", 8, i=3))
        with pytest.raises(ParamOutOfRange, match="odd"):
            validate_params(FamilyParams("II-T4a", 16, i=4, t=1))
        with pytest.raises(ParamOutOfRange):
            validate_params(FamilyParams("III-T5a", 7, i=3, t=1))

    def test_non_prime_power_q(self):
        with pytest.raises(ParamOutOfRange, match="prime power"):
            validate_params(FamilyParams("III-T6", 12, n=6, k=1, t=1))
        with pytest.raises(ParamOutOfRange, match="prime power"):
            enumerate_family("III-T8", 15)

    def test_index_ranges(self):
        validate_params(FamilyParams("II-T2", 16, i=7))
        with pytest.raises(ParamOutOfRange, match="i ="):
            validate_params(FamilyParams("II-T2", 16, i=8))
        with pytest.raises(ParamOutOfRange, match="t ="):
            validate_params(FamilyParams("II-T3a", 16, i=5, t=4))
        validate_params(FamilyParams("II-T3b", 16, i=5, t=4))
        with pytest.raises(ParamOutOfRange, match="n ="):
            validate_params(FamilyParams("III-T6", 7, n=4, k=1, t=1))
        with pytest.raises(ParamOutOfRange, match="k ="):
            validate_params(FamilyParams("III-T8", 7, n=7, k=4, t=1))

    def test_parameters_outside_the_grid(self):
        with pytest.raises(ParamOutOfRange, match="takes only i, got n, t"):
            validate_params(FamilyParams("II-T2", 16, i=3, t=9, n=4))
        with pytest.raises(ParamOutOfRange, match="takes only i, t, got k"):
            validate_params(FamilyParams("III-T5a", 8, i=4, t=1, k=2))
        with pytest.raises(ParamOutOfRange, match="takes only n, k, t, got i"):
            validate_params(FamilyParams("III-T6", 7, n=6, k=1, t=1, i=0))
        with pytest.raises(ParamOutOfRange, match="takes only i, got partition"):
            validate_params(FamilyParams("II-T2", 16, i=3, partition=(1, 1)))
        with pytest.raises(ParamOutOfRange, match="ranges over n, k, t only, got i"):
            enumerate_family("III-T6", 7, {"i": (1, 1)})

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            validate_params(FamilyParams("IV-T9", 5))
        with pytest.raises(ValueError, match="unknown family"):
            enumerate_family("nope", 5)

    def test_family_list_is_stable(self):
        assert FAMILIES == (
            "I",
            "II-T2",
            "II-T3a",
            "II-T3b",
            "II-T4a",
            "II-T4b",
            "III-T5a",
            "III-T5b",
            "III-T6",
            "III-T8",
        )


class TestExpectedTuples:
    def test_t2_formulas(self):
        e = expected_tuple(FamilyParams("II-T2", 16, i=3))
        assert (e.n, e.k_formula, e.gamma_formula) == (17, 2, 6)
        assert (e.v1_stated, e.v2perp_stated) == (10, 3)
        assert (e.dz_bound, e.dx_bound) == (10, 3)

    def test_t3_formulas(self):
        ea = expected_tuple(FamilyParams("II-T3a", 16, i=5, t=1))
        assert (ea.n, ea.k_formula, ea.gamma_formula, ea.dz_bound, ea.dx_bound) == (17, 6, 6, 6, 5)
        eb = expected_tuple(FamilyParams("II-T3b", 32, i=8, t=1))
        assert (eb.n, eb.k_formula, eb.gamma_formula, eb.dz_bound, eb.dx_bound) == (33, 14, 4, 16, 5)

    def test_t4_formulas(self):
        e = expected_tuple(FamilyParams("II-T4a", 9, i=4, t=1))
        assert (e.n, e.k_formula, e.gamma_formula, e.v1_stated, e.v2perp_stated) == (10, 4, 6, 2, 4)
        assert (e.dz_bound, e.dx_bound) == (4, 2)

    def test_t5_swap_orientation(self):
        # when the inner-dual bound beats the outer one, the reported
        # pair swaps so that dz carries the max
        e = expected_tuple(FamilyParams("III-T5a", 11, i=7, t=2))
        assert (e.v1_stated, e.v2perp_stated) == (3, 4)
        assert (e.dz_bound, e.dx_bound) == (4, 3)
        e2 = expected_tuple(FamilyParams("III-T5b", 11, i=6, t=5))
        assert (e2.n, e2.k_formula, e2.gamma_formula) == (10, 1, 2)
        assert (e2.dz_bound, e2.dx_bound) == (7, 4)

    def test_grs_formulas(self):
        e = expected_tuple(FamilyParams("III-T6", 17, n=17, k=3, t=5))
        assert (e.n, e.k_formula, e.gamma_formula, e.dz_bound, e.dx_bound) == (17, 7, 3, 7, 4)
        # by side: V1 is stated at k + 1, V2-perp at t + 2; certify checks
        # each exact side distance against its own bound
        assert (e.v1_stated, e.v2perp_stated) == (4, 7)
        e8 = expected_tuple(FamilyParams("III-T8", 7, n=7, k=2, t=2))
        assert (e8.n, e8.k_formula, e8.gamma_formula, e8.dz_bound, e8.dx_bound) == (7, 2, 2, 4, 3)


class TestEnumeration:
    def test_t2_grid_q16(self):
        rows = enumerate_family("II-T2", 16)
        assert [(p.i, e.k_formula) for p, e in rows] == [
            (3, 2), (4, 4), (5, 6), (6, 8), (7, 10),
        ]

    def test_out_of_range_field_is_empty_not_error(self):
        assert enumerate_family("II-T2", 8) == []
        assert enumerate_family("II-T4a", 7) == []  # prime, needs l >= 2

    def test_t6_q5_stops_before_zero_k_point(self):
        # the paper's t <= n - k - 2 also admits (5, 1, 2), where k = 0
        rows = enumerate_family("III-T6", 5)
        assert [(p.n, p.k, p.t, e.k_formula) for p, e in rows] == [(5, 1, 1, 1)]

    def test_every_grid_point_has_a_logical_qudit(self):
        for family in FAMILIES[1:]:
            for q in (5, 7, 8, 9, 16, 17, 32):
                assert all(e.k_formula >= 1 for _, e in enumerate_family(family, q))

    def test_ranges_narrow_the_grid(self):
        rows = enumerate_family("III-T5a", 11, ranges={"i": (6, 6), "t": (1, 2)})
        assert [(p.i, p.t) for p, _ in rows] == [(6, 1), (6, 2)]

    def test_grid_ceiling(self, monkeypatch, deadline):
        # the count runs before any point is built: with cheap points, the
        # 325 500 of III-T6 at q = 128 pass and q = 256 is refused
        monkeypatch.setattr(families, "FamilyParams", lambda family, q, **kw: kw)
        monkeypatch.setattr(families, "_closed_form", lambda p: None)
        assert len(enumerate_family("III-T6", 128)) == 325500 <= families.MAX_GRID_ROWS
        with pytest.raises(ParamOutOfRange, match="more than 1048576 points"):
            enumerate_family("III-T6", 256)
        assert len(enumerate_family("III-T6", 256, {"n": (256, 256), "k": (1, 2)})) == 252 + 251  # t <= n - k - 3

    def test_construction_i_not_enumerable(self):
        with pytest.raises(ValueError, match="no parameter grid"):
            enumerate_family("I", 5)

    # a spread of admissible and inadmissible orders; the III-T6/8 boxes
    # grow as q^3, so those two families stop at q = 17
    @pytest.mark.parametrize("family", FAMILIES[1:])
    def test_grid_is_what_validation_accepts(self, family, deadline):
        if family in ("III-T6", "III-T8"):
            names, orders = ("n", "k", "t"), (4, 5, 7, 8, 9, 11, 16, 17)
        else:
            names = ("i",) if family == "II-T2" else ("i", "t")
            orders = (4, 5, 7, 8, 9, 11, 16, 17, 25, 27, 32)
        for q in orders:
            want = []
            for values in itertools.product(range(q + 2), repeat=len(names)):
                params = FamilyParams(family, q, **dict(zip(names, values)))
                try:
                    validate_params(params)
                except ParamOutOfRange:
                    continue
                want.append((params, expected_tuple(params)))
            assert enumerate_family(family, q) == want, q


# every grid point of every family at these orders, 1450 in all
LAYOUT_POINTS = [
    p
    for family in FAMILIES[1:]
    for q in (4, 5, 7, 8, 9, 11, 16)
    for p, _ in enumerate_family(family, q)
]


class TestLayouts:
    @pytest.mark.parametrize("params", LAYOUT_POINTS, ids=lambda p: p.label())
    def test_generators_match_closed_forms(self, params):
        plan = layout(params)
        g1, g2 = plan.generators()
        e = plan.expected
        assert g1.rows - g2.rows == e.k_formula
        assert is_basic(g1) and is_reduced(g1)
        assert is_basic(g2) and is_reduced(g2)
        total = sum(g1.row_degrees) + sum(g2.row_degrees)
        assert total == e.gamma_formula
        # inner rows must literally be outer rows for these layouts
        outer_rows = set(g1.e)
        assert all(row in outer_rows for row in g2.e)

    def test_zero_logical_dimension_points_refuse_to_build(self):
        # off the grid: refused by validate_params before anything is built
        with pytest.raises(ParamOutOfRange, match="t <= 1"):
            layout(FamilyParams("III-T6", 5, n=5, k=1, t=2))
        with pytest.raises(ParamOutOfRange, match="t <= 3"):
            layout(FamilyParams("III-T8", 7, n=7, k=2, t=4))

    def test_t4_merged_row_has_degree_two(self):
        plan = layout(FamilyParams("II-T4b", 9, i=3, t=1))
        g1, g2 = plan.generators()
        assert g1.max_degree == 2 and g2.max_degree == 2
        assert g2.row_degrees[0] == 2
        # the top-degree slice row must have no zero coordinate, which is
        # what keeps the chain bound at 2t + 2
        assert plan.chain_designed == (2, 2) and plan.expected.v2perp_stated == 4

    def test_degenerate_partner_falls_back_with_a_note(self):
        # both rows are zero in column 2, and so is every r0 + c*r1
        f3 = field_from_order(3)
        p0, p1, notes = families._split_degenerate_partner(f3, np.array([[1, 0, 0], [0, 1, 0]]))
        assert p0.tolist() == [1, 0, 0] and p1.tolist() == [0, 1, 0]
        assert notes == ("top-degree slice of the merged row has a zero coordinate",)

    def test_t6_lead_exponent_moves_when_it_would_collide(self):
        # t = n - k - 3 would make the lead pair reuse the t row
        plan = layout(FamilyParams("III-T6", 17, n=17, k=3, t=11))
        g1, _ = plan.generators()
        assert g1.rows == plan.expected.k_formula + plan.params.t


class TestCertificates:
    def test_t2_q16_tuple(self):
        cert = certify_params(FamilyParams("II-T2", 16, i=3), effort="structure")
        assert cert.tuple_str == "[(17,2,1;6,dz>=10/dx>=3)]_16"

    def test_t3a_q16_spec_point(self):
        cert = certify_params(FamilyParams("II-T3a", 16, i=5, t=1), effort="desk")
        assert (cert.n, cert.logical, cert.gamma) == (17, 6, 6)
        assert (cert.dz_bound, cert.dx_bound) == (6, 5)
        assert cert.data["checks"]["symplectic"] == "zero"
        assert cert.data["checks"]["containment"] == "verified"

    def test_t5_q11_desk_closes_small_instance(self):
        cert = certify_params(FamilyParams("III-T5a", 11, i=4, t=1), effort="desk")
        aq = cert.data["distances"]["aqcc"]
        assert (cert.dz_bound, cert.dx_bound) == (6, 3)
        assert aq["dz_exact"] >= aq["dz_bound"]
        assert aq["dx_exact"] >= aq["dx_bound"]

    def test_t6_q5_exact_distances(self):
        cert = certify_params(FamilyParams("III-T6", 5, n=5, k=1, t=1), effort="desk")
        aq = cert.data["distances"]["aqcc"]
        assert (cert.dz_bound, cert.dx_bound) == (3, 2)
        assert (aq["dz_exact"], aq["dx_exact"]) == (5, 3)

    def test_t8_q7_exact_distances(self):
        cert = certify_params(FamilyParams("III-T8", 7, n=7, k=2, t=2), effort="desk")
        aq = cert.data["distances"]["aqcc"]
        assert (cert.n, cert.logical, cert.gamma, cert.mu_star) == (7, 2, 2, 1)
        assert aq["dz_exact"] >= 4 and aq["dx_exact"] >= 3

    def test_t4_q9_chain_certifies_formula(self):
        cert = certify_params(FamilyParams("II-T4a", 9, i=4, t=1), effort="desk")
        assert cert.mu_star == 2
        assert "layout-reconstructed" in cert.data["notes"]
        conv = cert.data["distances"]["convo"]
        # the inner-dual side must certify at least the stated 2t + 2
        assert conv["d2f_dual"]["lower"] >= 4

    @pytest.mark.parametrize("family, q, kw", [
        ("III-T6", 17, {"n": 17, "k": 3, "t": 5}),
        ("II-T3b", 16, {"i": 6, "t": 1}),
    ])
    def test_overlapping_sides_leave_dz_open(self, family, q, kw):
        # d1f is an open bracket reaching past the exact inner-dual side,
        # so neither side is known to be the larger one
        cert = certify_params(FamilyParams(family, q, **kw), effort="desk")
        conv = cert.data["distances"]["convo"]
        assert not conv["d1f"]["exact"] and conv["d2f_dual"]["exact"]
        assert "dz_exact" not in cert.data["distances"]["aqcc"]

    def test_certificates_are_byte_identical(self):
        a = certify_params(FamilyParams("III-T8", 7, n=7, k=2, t=2)).to_json()
        b = certify_params(FamilyParams("III-T8", 7, n=7, k=2, t=2)).to_json()
        assert a == b

    def test_json_schema_keys(self):
        cert = certify_params(FamilyParams("III-T6", 5, n=5, k=1, t=1), effort="structure")
        data = json.loads(cert.to_json())
        assert list(data) == ["family", "q", "params", "field", "matrices", "checks", "distances", "tuple"]
        assert list(data["matrices"]) == [
            "source_H", "G1", "G2", "H1", "stabilizer_X", "stabilizer_Z",
        ]
        assert list(data["checks"]["degrees"]) == ["gamma1", "gamma2", "gamma", "mu", "mu_star"]
        assert data["field"] == {"p": 5, "l": 1, "modulus": [0, 1]}
        assert data["params"] == {"n": 5, "k": 1, "t": 1}

    def test_structure_effort_reports_open_bounds(self):
        cert = certify_params(FamilyParams("II-T3a", 16, i=5, t=1), effort="structure")
        conv = cert.data["distances"]["convo"]
        assert conv["d1f"]["upper"] is None
        assert conv["d1f"]["lower"] == 6
        assert conv["provenance"]["d1f"] == {"route": "designed", "floor": "d_dual"}
        assert conv["provenance"]["d2f_dual"] == {"route": "designed", "floor": "chain"}

    def test_stated_bound_above_a_witness_is_refused(self):
        # the stated V1 bound floors d_dual, which d1f's lower bound reads:
        # at desk d1f is the open bracket [4, 8], but d_dual is exactly 4,
        # by a codeword of weight 4 at structure and by MacWilliams at desk,
        # so either effort refutes any stated bound above 4
        plan = layout(FamilyParams("III-T6", 17, n=17, k=3, t=5))
        conv = certify_plan(plan).data["distances"]["convo"]
        assert (conv["d1f"]["lower"], conv["d1f"]["upper"]) == (4, 8)
        stated = lambda v1: replace(plan, expected=replace(plan.expected, v1_stated=v1))
        for effort, proof in (("structure", "the weight of a codeword"), ("desk", "an upper bound")):
            certify_plan(stated(4), effort=effort)
            with pytest.raises(AqccError, match=f"lower bound 5 exceeds 4, {proof}"):
                certify_plan(stated(5), effort=effort)

    @pytest.mark.parametrize("q, n, partition, seed",
                             [(2, 10, (1, 2, 1, 2, 1, 2), 0), (3, 9, (1, 2, 1, 2), 8)])
    def test_stated_inner_dual_bound_above_its_free_distance_is_refused(self, q, n, partition,
                                                                         seed):
        # the chain floors d2f by min(d0 + dm, ds) over G2's first slice,
        # top slice and stack; here d0 + dm = 2 is below ds = 3, so a stated
        # v2perp of 3 passes the stack piece, and only desk's free distance
        # search, which finds d2f = 2 exactly, refutes it
        f = field_from_order(q)
        plan = construction_i_plan(f, demo_vectors(f, n, partition, seed=seed), partition)
        g2 = plan.generators()[1]
        slices = (g2.coefficient(0), g2.coefficient(g2.max_degree), g2.stack)
        assert [BlockCode(f, m).min_distance().upper for m in slices] == [1, 1, 3]
        conv = certify_plan(plan, effort="desk").data["distances"]["convo"]
        assert (conv["d2f_dual"]["lower"], conv["d2f_dual"]["upper"]) == (2, 2)
        stated = lambda v: replace(plan, expected=replace(plan.expected, v2perp_stated=v))
        certify_plan(stated(2), effort="desk")
        with pytest.raises(AqccError, match="inner-dual free distance is at most 2, "
                                            "below the stated bound 3"):
            certify_plan(stated(3), effort="desk")

    @pytest.mark.parametrize("effort", ["structure", "desk"])
    def test_outer_rows_off_the_source_dual_are_refused(self, effort):
        # d_dual is the distance of the source's dual, which floors d1f only
        # when G1's coefficient rows span it: a main outer row moved off the
        # parity's span leaves G2, and so containment, as it is, and a
        # source with one more parity row than G1's stack spans a larger
        # dual; either plan is refused before any distance is read
        f5 = field_from_order(5)
        vec = demo_vectors(f5, 9, [2, 2, 2, 1], seed=3)
        plan = construction_i_plan(f5, vec, [2, 2, 2, 1])
        b0, b1 = plan.blocks1
        codeword = plan.source.generator.a[0]
        moved = b0.a.copy()
        moved[0] = f5._vadd(moved[0], codeword)
        off_span = replace(plan, blocks1=(MatrixGF(f5, moved), b1))
        g1 = off_span.generators()[0]
        assert not (g1.stack @ plan.source.generator.T).is_zero()
        assert g1.stack.rank() == plan.source.parity.rows
        wider = MatrixGF(f5, np.concatenate([vec.a, codeword[None]]))
        assert wider.right_inverse() is not None
        larger_dual = replace(plan, source=BlockCode(f5, wider))
        assert larger_dual.generators()[0].stack.rank() == vec.rows < wider.rows
        certify_plan(plan, effort=effort)
        for doctored in (off_span, larger_dual):
            with pytest.raises(AqccError, match="outer coefficient rows do not span "
                                                "the dual of the source code"):
                certify_plan(doctored, effort=effort)

    @pytest.mark.parametrize("which", [0, 1])
    def test_generators_that_are_not_reduced_are_refused(self, which, monkeypatch):
        # row i of top degree nu_i gains D**s times row j, s = nu_i - nu_j +
        # 1: the code is the same, but the row now leads with row j's
        # leading coefficients, so the leading-row matrix loses rank
        plan = layout(FamilyParams("II-T3a", 16, i=5, t=1))
        gens = list(plan.generators())
        g = gens[which]
        nu = g.row_degrees
        i = nu.index(max(nu))
        j = (i + 1) % g.rows
        s = nu[i] - nu[j] + 1
        u = np.zeros((s + 1, g.rows, g.rows), dtype=np.int32)
        u[0] = np.eye(g.rows, dtype=np.int32)
        u[s, i, j] = 1
        gens[which] = PolyMatrix.from_coefficients(g.field, u) @ g
        assert not is_reduced(gens[which])
        monkeypatch.setattr(LayoutPlan, "generators", lambda self: tuple(gens))
        with pytest.raises(AqccError, match="^split generator is not reduced$"):
            certify_plan(plan, effort="structure")

    def test_closed_forms_that_differ_are_refused(self):
        plan = layout(FamilyParams("III-T6", 5, n=5, k=1, t=1))
        e = plan.expected
        for change, message in (
            ({"k_formula": e.k_formula + 1}, "logical dimension 1 differs from the closed form 2"),
            ({"gamma_formula": e.gamma_formula + 1}, "total degree 3 differs from the closed form 4"),
        ):
            with pytest.raises(AqccError, match=f"^{message}$"):
                certify_plan(replace(plan, expected=replace(e, **change)), effort="structure")

    def test_zero_logical_dimension_certify(self):
        with pytest.raises(ParamOutOfRange):
            certify_params(FamilyParams("III-T6", 5, n=5, k=1, t=2))

    def test_full_effort_is_refused(self):
        plan = layout(FamilyParams("III-T6", 5, n=5, k=1, t=1))
        with pytest.raises(ValueError, match="effort"):
            certify_plan(plan, effort="full")


class TestFaultInjection:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mutate_row_breaks_containment(self, seed):
        with pytest.raises(ContainmentFailed):
            certify_params(
                FamilyParams("III-T8", 7, n=7, k=2, t=2), fault="mutate-row", seed=seed
            )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_rank_condition_violation(self, seed):
        with pytest.raises(RankConditionViolated):
            certify_params(
                FamilyParams("III-T6", 5, n=5, k=1, t=1), fault="rank-condition", seed=seed
            )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_swapped_columns_break_symplectic(self, seed):
        with pytest.raises(SymplecticViolation):
            certify_params(
                FamilyParams("III-T5a", 8, i=4, t=1), fault="swap-blocks", seed=seed
            )

    def test_unknown_fault_name(self):
        with pytest.raises(ValueError, match="fault"):
            certify_params(FamilyParams("III-T6", 5, n=5, k=1, t=1), fault="typo")


class TestConstructionI:
    def test_demo_vectors_give_up_when_no_draw_is_independent(self, monkeypatch):
        monkeypatch.setattr(MatrixGF, "right_inverse", lambda self: None)
        with pytest.raises(IndependenceViolated,
                           match=r"^could not draw 4 independent rows of length 6$"):
            demo_vectors(field_from_order(5), 6, [1, 1, 1, 1])

    def test_reference_partition(self):
        f5 = field_from_order(5)
        vec = demo_vectors(f5, 6, [1, 1, 1, 1], seed=3)
        plan = construction_i_plan(f5, vec, [1, 1, 1, 1])
        g1, g2 = plan.generators()
        assert (g1.rows, g2.rows) == (2, 1)
        assert sum(g1.row_degrees) == 2
        assert sum(g2.row_degrees) == 1
        cert = certify_plan(plan)
        assert cert.logical == 1 and cert.gamma == 3
        assert cert.data["params"]["partition"] == [1, 1, 1, 1]
        assert cert.data["params"]["mu"] == 1

    def test_two_row_main_blocks(self):
        f3 = field_from_order(3)
        vec = demo_vectors(f3, 9, [2, 1, 2, 1], seed=0)
        cert = certify_plan(construction_i_plan(f3, vec, [2, 1, 2, 1]))
        assert cert.logical == 2
        assert cert.gamma == 1 * 2 + 2 * 1  # mu*kappa + 2 * (aux sizes past the first)

    def test_partition_must_interleave(self):
        f5 = field_from_order(5)
        vec = demo_vectors(f5, 8, [1, 1, 1, 1], seed=1)
        with pytest.raises(PartitionInvalid, match="interleaved"):
            construction_i_plan(f5, vec, [2, 2])  # mu = 0
        with pytest.raises(PartitionInvalid, match="covers"):
            construction_i_plan(f5, vec, [1, 1, 1, 2])
        with pytest.raises(PartitionInvalid, match="equal"):
            construction_i_plan(f5, demo_vectors(f5, 8, [2, 1, 1, 1], seed=1), [2, 1, 1, 1])

    def test_aux_sizes_nonincreasing(self):
        f5 = field_from_order(5)
        vec = demo_vectors(f5, 8, [1, 1, 1, 2], seed=2)
        with pytest.raises(PartitionInvalid, match="nonincreasing"):
            construction_i_plan(f5, vec, [1, 1, 1, 2])

    def test_dependent_rows_rejected(self):
        f5 = field_from_order(5)
        vec = demo_vectors(f5, 6, [1, 1, 1, 1], seed=3)
        doubled = vec.a.copy()
        doubled[3] = doubled[0]
        with pytest.raises(IndependenceViolated):
            construction_i_plan(f5, doubled, [1, 1, 1, 1])


def source_plans():
    """Plans of the 25 reference rows and of every mds-sources grid point."""
    for family, q, kw, *_ in REFERENCE_ROWS:
        yield layout(FamilyParams(family, q, **kw))
    for family in FAMILIES[1:]:
        for q in (2, 3, 4, 5, 7, 8, 9, 11):
            for params, _ in enumerate_family(family, q):
                yield layout(params)


def test_source_parities_need_no_elimination():
    # cyclic_structure, grs_build and the kernels behind generator and
    # dual() build their codes without BlockCode's row elimination (as
    # construction_i_plan does after its own rank check): their rows are
    # independent by construction, so it would drop none
    seen = set()
    for plan in source_plans():
        code = plan.source
        if code.parity.a.tobytes() in seen:
            continue
        seen.add(code.parity.a.tobytes())
        for m in (code.parity, code.generator, code.dual().generator):
            assert m.remove_dependent_rows() is m, plan.params.label()
    assert len(seen) >= 80


@pytest.mark.parametrize("effort", ["structure", "desk"])
def test_outer_stack_is_eliminated_once(effort, monkeypatch):
    # G1's coefficient stack holds the source parity's rows in another
    # order, which the parity's right inverse proves independent; the one
    # elimination of [H | I] for the parity H gives that inverse and the
    # echelon the stack borrows, and the source's kernel, the stack's rank
    # and the dual's witness row all read it
    params = FamilyParams("II-T3a", 16, i=5, t=1)
    source = layout(params).source.parity.a
    eliminated = []
    rref = matrix._rref

    def counted(field, a):
        eliminated.append(np.array(a))
        return rref(field, a)

    monkeypatch.setattr(matrix, "_rref", counted)
    cert = certify_params(params, effort=effort)

    def nonzero_rows(a):
        return sorted(a[a.any(axis=1)].tolist())

    rows = cert.g1.c.reshape(-1, cert.g1.cols)
    stack = nonzero_rows(rows)
    assert stack == nonzero_rows(source) and not np.array_equal(rows[rows.any(axis=1)], source)
    # 16**k and 16**(17 - k) both pass the desk budget, so the dual's
    # distance takes the witness row from the echelon at either effort
    assert min(len(stack), 17 - len(stack)) >= 5
    # once, as [H | I], and not again as the stack
    aug = np.concatenate([source, np.eye(len(source), dtype=np.int32)], axis=1)
    assert sum(np.array_equal(a, aug) for a in eliminated) == 1
    assert not any(nonzero_rows(a) == stack for a in eliminated)


@pytest.mark.parametrize("effort, rows", [
    ("structure", REFERENCE_ROWS),
    ("desk", [row for row in REFERENCE_ROWS if row[1] <= 17]),
], ids=["structure", "desk"])
def test_no_certificate_eliminates_a_row_space_twice(effort, rows, monkeypatch):
    # the reduced echelon names the row space: each space a certificate
    # needs is eliminated once, and every later reader takes that echelon
    keys = []
    rref = matrix._rref

    def counted(field, a):
        red, piv = rref(field, a)
        keys.append((field.q, np.shape(a)[1], red[:len(piv)].tobytes()))
        return red, piv

    monkeypatch.setattr(matrix, "_rref", counted)
    assert len(rows) == (25 if effort == "structure" else 19)
    for family, q, kw, *_ in rows:
        keys.clear()
        certify_params(FamilyParams(family, q, **kw), effort=effort)
        assert keys and len(set(keys)) == len(keys), f"{family} q={q} {kw}"


@pytest.mark.parametrize("effort", ["structure", "desk"])
def test_seed_rows_are_eliminated_once(effort, monkeypatch):
    # construction I's G1 stacks the seed rows S, with a zero row where the
    # second auxiliary block is shorter; it takes the echelon that drawing
    # the rows computed by eliminating [S | I] once
    eliminated = []
    rref = matrix._rref

    def counted(field, a):
        eliminated.append(np.array(a))
        return rref(field, a)

    monkeypatch.setattr(matrix, "_rref", counted)
    f5 = field_from_order(5)
    vec = demo_vectors(f5, 9, [2, 2, 2, 1], seed=3)
    cert = certify_plan(construction_i_plan(f5, vec, [2, 2, 2, 1]), effort=effort)
    stack = cert.g1.c.reshape(-1, cert.g1.cols)
    assert len(stack) == 8 and stack.any(axis=1).sum() == 7
    assert sum(np.array_equal(a[:, :vec.cols], vec.a) for a in eliminated) == 1
    aug = np.concatenate([vec.a, np.eye(vec.rows, dtype=np.int32)], axis=1)
    assert sum(np.array_equal(a, aug) for a in eliminated) == 1


def test_split_plan_eliminates_its_rows_once(monkeypatch):
    # drawing a plan's rows S eliminates [S | I], drawing again while the
    # rows are dependent; the last draw's elimination proves both
    # generators basic and reduced, with no other elimination
    calls = []
    rref = matrix._rref

    def counted(field, a):
        red, piv = rref(field, a)
        calls.append((np.shape(a), sum(p < a.shape[1] - a.shape[0] for p in piv)))
        return red, piv

    monkeypatch.setattr(matrix, "_rref", counted)
    rng = random.Random(20260817)
    redraws = 0
    for _ in range(selftest.SPLIT_PLANS):
        calls.clear()
        plan = selftest._random_plan(rng)
        for g in plan.generators():
            assert is_basic(g) and is_reduced(g)
        rows, n = plan.source.parity.shape
        assert all(shape == (rows, n + rows) for shape, _ in calls)
        assert [rank == rows for _, rank in calls] == [False] * (len(calls) - 1) + [True]
        redraws += len(calls) - 1
    assert redraws > 0


def test_outer_stack_takes_no_echelon_of_other_rows(monkeypatch):
    # G1's stack borrows the seed's echelon and right inverse only when it
    # holds the seed's rows, in any order: a plan whose outer blocks repeat
    # a row still fails the split, and one with a changed row eliminates
    # its own 7 rows once, as [S | I], and reads R_S from that instead
    f5 = field_from_order(5)
    vec = demo_vectors(f5, 9, [2, 2, 2, 1], seed=3)
    plan = construction_i_plan(f5, vec, [2, 2, 2, 1])
    b0, b1 = plan.blocks1
    repeated = MatrixGF(f5, np.concatenate([b1.a[:-1], b0.a[:1]]))
    with pytest.raises(RankDeficient):
        replace(plan, blocks1=(b0, repeated)).generators()

    eliminated = []
    rref = matrix._rref

    def counted(field, a):
        eliminated.append(np.array(a))
        return rref(field, a)

    monkeypatch.setattr(matrix, "_rref", counted)
    # the seed's echelon and right inverse are cached from drawing it, and
    # G2's stack holds seed rows, so it is not eliminated
    changed = b1.a.copy()
    changed[2] = f5._vadd(changed[2], b0.a[0])  # the same row space
    for blocks1, own in (((MatrixGF(f5, b0.a[::-1]), b1), False),
                         ((b0, MatrixGF(f5, changed)), True)):
        eliminated.clear()
        g1, g2 = replace(plan, blocks1=blocks1).generators()
        live = g1.stack.a[g1.stack.a.any(axis=1)]
        assert live.tolist() != vec.a.tolist()
        assert (sorted(live.tolist()) == sorted(vec.a.tolist())) is not own
        assert [a.shape for a in eliminated] == ([(7, 9 + 7)] if own else [])
        assert g1._right is not None and g2._right is not None
        red, piv = g1.stack.rref()
        want_red, want_piv = rref(f5, g1.stack.a)
        assert np.array_equal(red.a, want_red) and piv == want_piv


@pytest.mark.parametrize("fn, message", [
    (expected_tuple, "no closed-form tuple for family 'I'"),
    (families.source_key, "I has no family source code"),
    (layout, "construction I builds from explicit vectors, not a grid point"),
])
def test_construction_i_has_no_grid_point(fn, message):
    # construction I builds from explicit rows through construction_i_plan
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(FamilyParams("I", 5, n=8, partition=(2, 1, 2, 1)))


def test_source_key_fixes_the_source():
    # the sources as each layout once built them, family by family; a
    # source_key must name everything they depend on
    for family in FAMILIES[1:]:
        for q in (4, 5, 7, 8, 9, 16, 25):
            field = field_from_order(q)
            points = {}
            for params, _ in enumerate_family(family, q):
                points.setdefault(families.source_key(params), params)
            for params in points.values():
                i, n, k = params.i, params.n, params.k
                if family in ("II-T2", "II-T3a", "II-T3b"):
                    want = bch_parity(field, q + 1, i + 2, b=q // 2 - i)
                elif family in ("II-T4a", "II-T4b"):
                    want = bch_parity(field, q + 1, i + 2, b=(q + 1) // 2 - i)
                elif family in ("III-T5a", "III-T5b"):
                    want = rs_parity(field, q - 1, i + 2, b=0)
                else:
                    want = grs_build(field, families.default_grs_points(field, n), (1,) * n, k)
                got = families.build_source(families.source_key(params))
                assert got.code.parity == want.code.parity, params.label()
                assert got.row_groups.keys() == want.row_groups.keys()


def test_mds_sources_builds_each_source_once(monkeypatch):
    built = []
    build = families.build_source
    monkeypatch.setattr(selftest, "build_source", lambda key: built.append(key) or build(key))
    assert selftest.check_mds_sources() == "79 distinct source codes all meet the Singleton bound"
    assert len(built) == len(set(built)) == 79


def randrange_vectors(field, n, partition, seed):
    """demo_vectors with one Random.randrange call per entry: the draws
    the inlined rejection loop must reproduce, and the attempts taken."""
    import random

    rng = random.Random(seed)
    total = sum(partition)
    for attempt in range(1, 257):
        a = np.array([[rng.randrange(field.q) for _ in range(n)] for _ in range(total)],
                     dtype=np.int32)
        if MatrixGF(field, a).rank() == total:
            return a, attempt
    raise AssertionError("no independent draw")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_demo_vectors_draw_the_randrange_stream(q):
    # square draws are often singular, so some seeds redraw; q = 3, 5, 7
    # and 11 reject draws of q.bit_length() bits at or past q
    f = field_from_order(q)
    redrawn = 0
    for seed in range(40):
        for n, partition in ((3, [1, 1, 1]), (5, [2, 1, 1])):
            want, attempts = randrange_vectors(f, n, partition, seed)
            assert np.array_equal(demo_vectors(f, n, partition, seed=seed).a, want)
            redrawn += attempts > 1
    assert redrawn
