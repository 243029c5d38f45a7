"""Family layouts, closed-form tuples, and the certification pipeline."""

import itertools
import json

import numpy as np
import pytest

from aqcc import families, matrix, selftest
from aqcc.block import bch_parity, grs_build, rs_parity
from aqcc.certify import (
    Budgets,
    certify_params,
    certify_plan,
)
from aqcc.convo import degree_accounting, is_basic, is_reduced
from aqcc.errors import (
    ContainmentFailed,
    IndependenceViolated,
    ParamOutOfRange,
    PartitionInvalid,
    RankConditionViolated,
    SymplecticViolation,
    ZeroLogicalDimension,
)
from aqcc.families import (
    FAMILIES,
    FamilyParams,
    construction_i_plan,
    demo_vectors,
    enumerate_family,
    expected_tuple,
    layout,
    validate_params,
)
from aqcc.matrix import field_from_order
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

    def test_t6_q5_includes_zero_k_point(self):
        rows = enumerate_family("III-T6", 5)
        assert [(p.n, p.k, p.t, e.k_formula) for p, e in rows] == [
            (5, 1, 1, 1), (5, 1, 2, 0),
        ]

    def test_ranges_narrow_the_grid(self):
        rows = enumerate_family("III-T5a", 11, ranges={"i": (6, 6), "t": (1, 2)})
        assert [(p.i, p.t) for p, _ in rows] == [(6, 1), (6, 2)]

    def test_grid_ceiling(self, monkeypatch, deadline):
        # the count runs before any point is built: with cheap points, the
        # 333 250 of III-T6 at q = 128 pass and q = 256 is refused
        monkeypatch.setattr(families, "FamilyParams", lambda family, q, **kw: kw)
        monkeypatch.setattr(families, "_closed_form", lambda p: None)
        assert len(enumerate_family("III-T6", 128)) == 333250 <= families.MAX_GRID_ROWS
        with pytest.raises(ParamOutOfRange, match="more than 1048576 points"):
            enumerate_family("III-T6", 256)
        assert len(enumerate_family("III-T6", 256, {"n": (256, 256), "k": (1, 2)})) == 253 + 252  # t <= n - k - 2

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


class TestLayouts:
    @pytest.mark.parametrize(
        "params",
        [
            FamilyParams("II-T2", 16, i=4),
            FamilyParams("II-T3a", 16, i=5, t=2),
            FamilyParams("II-T3b", 16, i=4, t=3),
            FamilyParams("II-T4a", 9, i=4, t=2),
            FamilyParams("II-T4b", 9, i=2, t=1),
            FamilyParams("III-T5a", 8, i=4, t=1),
            FamilyParams("III-T5b", 9, i=3, t=2),
            FamilyParams("III-T6", 8, n=8, k=2, t=1),
            FamilyParams("III-T8", 8, n=7, k=1, t=4),
        ],
        ids=lambda p: p.label(),
    )
    def test_generators_match_closed_forms(self, params):
        plan = layout(params)
        g1, g2 = plan.generators()
        e = plan.expected
        assert g1.rows - g2.rows == e.k_formula
        assert is_basic(g1) and is_reduced(g1)
        assert is_basic(g2) and is_reduced(g2)
        total = degree_accounting(g1).gamma + degree_accounting(g2).gamma
        assert total == e.gamma_formula
        # inner rows must literally be outer rows for these layouts
        outer_rows = set(g1.e)
        assert all(row in outer_rows for row in g2.e)

    def test_zero_logical_dimension_points_refuse_to_build(self):
        with pytest.raises(ZeroLogicalDimension):
            layout(FamilyParams("III-T6", 5, n=5, k=1, t=2))
        with pytest.raises(ZeroLogicalDimension):
            layout(FamilyParams("III-T8", 7, n=7, k=2, t=4))

    def test_t4_merged_row_has_degree_two(self):
        plan = layout(FamilyParams("II-T4b", 9, i=3, t=1))
        g1, g2 = plan.generators()
        assert g1.max_degree == 2 and g2.max_degree == 2
        assert degree_accounting(g2).row_degrees[0] == 2
        # the top-degree slice row must have no zero coordinate, which is
        # what keeps the chain bound at 2t + 2
        assert plan.chain_designed == (2, 2, 4)

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
        assert cert.aqcc.dz_side == "undecided"
        assert "dz_exact" not in cert.data["distances"]["aqcc"]
        assert cert.aqcc.dz.lower < cert.aqcc.dz.upper

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
        assert conv["provenance"]["d1f"] == "formula-from-paper"

    def test_zero_logical_dimension_certify(self):
        with pytest.raises(ZeroLogicalDimension):
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
    def test_reference_partition(self):
        f5 = field_from_order(5)
        vec = demo_vectors(f5, 6, [1, 1, 1, 1], seed=3)
        plan = construction_i_plan(f5, vec, [1, 1, 1, 1])
        g1, g2 = plan.generators()
        assert (g1.rows, g2.rows) == (2, 1)
        assert degree_accounting(g1).gamma == 2
        assert degree_accounting(g2).gamma == 1
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
            for params, e in enumerate_family(family, q):
                if e.k_formula > 0:
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
    # split_to_generator proves independence on G1's coefficient stack;
    # the span code's kernel and its witness row read that same echelon
    eliminated = []
    rref = matrix._rref

    def counted(field, a):
        eliminated.append(np.array(a))
        return rref(field, a)

    monkeypatch.setattr(matrix, "_rref", counted)
    cert = certify_params(FamilyParams("II-T3a", 16, i=5, t=1), effort=effort)

    def nonzero_rows(a):
        return a[a.any(axis=1)].tolist()

    stack = nonzero_rows(cert.g1.c.reshape(-1, cert.g1.cols))
    # 16**k and 16**(17 - k) both pass the desk budget, so the span code's
    # distance takes the witness row from the echelon at either effort
    assert min(len(stack), 17 - len(stack)) >= 5
    assert sum(nonzero_rows(a) == stack for a in eliminated) == 1


def test_source_key_fixes_the_source():
    # the sources as each layout once built them, family by family; a
    # source_key must name everything they depend on
    for family in FAMILIES[1:]:
        for q in (4, 5, 7, 8, 9, 16, 25):
            field = field_from_order(q)
            points = {}
            for params, e in enumerate_family(family, q):
                if e.k_formula > 0:
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
