"""Every distance bracket names the source of its lower bound and proves
its upper bound with a codeword.

A bracket's floor says where its lower bound came from: the route's own
search, a designed bound the constructor carries, d_dual (the floor the
certifier meets the outer free distance with), chain (the one it meets the
inner dual's with) or none.  Each test here recomputes that source and
checks it holds exactly that lower bound; the witness tests multiply each
witness by a parity check.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aqcc import FamilyParams, certify
from aqcc.block import DESK_ENUM_BUDGET, BlockCode, DistanceBound
from aqcc.certify import EFFORTS, certify_plan
from aqcc.convo import PolyMatrix, dual_generator, parse_poly_matrix
from aqcc.errors import AqccError
from aqcc.families import construction_i_plan, demo_vectors, layout
from aqcc.matrix import MatrixGF, field_from_order
from aqcc.selftest import DUALITY_SPECS, REFERENCE_ROWS
from aqcc.trellis import free_distance
from helpers import designed

ENCODER_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "encoders"
FLOORS = {"designed", "d_dual", "chain", "none"}


def plans():
    return [layout(FamilyParams(family, q, **kw)) for family, q, kw, *_ in REFERENCE_ROWS]


def assert_block_codeword(code: BlockCode, b):
    assert b.witness.shape == (1, code.n)
    w = MatrixGF(code.field, b.witness)
    assert (w @ code.parity.T).is_zero()
    assert np.count_nonzero(w.a) == b.upper


def assert_convolutional_codeword(g: PolyMatrix, b):
    """The witness times the minimal dual h, w(D) h(1/D)^T, vanishes."""
    w = PolyMatrix.from_coefficients(g.field, b.witness[:, None])
    assert np.array_equal(w.c[:, 0], b.witness)  # its last row is nonzero
    h = dual_generator(g)
    assert (w @ h.reverse(max(h.max_degree, 0)).T).is_zero()
    assert np.count_nonzero(b.witness) == b.upper


@pytest.fixture(scope="module")
def desk_brackets():
    """(code or generator, bracket) for every distance the certifier
    computes on the 25 reference rows at desk effort."""
    seen = []
    min_distance, trellis = BlockCode.min_distance, certify.free_distance

    def spy_block(code, *args, **kw):
        seen.append((code, min_distance(code, *args, **kw)))
        return seen[-1][1]

    def spy_trellis(g, **kw):
        seen.append((g, trellis(g, **kw)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BlockCode, "min_distance", spy_block)
        mp.setattr(certify, "free_distance", spy_trellis)
        for plan in plans():
            certify_plan(plan, effort="desk")
    return seen


def test_reference_witnesses_are_codewords(desk_brackets):
    witnesses = 0
    for source, b in desk_brackets:
        if b.witness is None:
            continue
        if isinstance(source, BlockCode):
            assert_block_codeword(source, b)
        else:
            assert_convolutional_codeword(source, b)
        witnesses += 1
    assert witnesses >= 50
    # every exact trellis search carries its own codeword
    assert all(b.witness is not None for g, b in desk_brackets if b.method == "dijkstra")


def test_encoder_witnesses_are_codewords():
    paths = sorted(ENCODER_DIR.glob("*.txt"))
    assert len(paths) == 14
    for path in paths:
        g = parse_poly_matrix(path.read_text())
        b = free_distance(g)
        assert b.exact and b.witness is not None, path.name
        assert_convolutional_codeword(g, b)
        if path.name == "r2m9.txt":
            assert b.upper == 12


def chain_bound(plan, effort: str) -> DistanceBound:
    """[min(d0 + dm, ds), ds] over the inner generator's first slice, top
    slice and stack, recomputed as the certifier states it: the stack's
    floor is the stated bound on the inner dual, and structure searches no
    slice, so its chain has no upper bound."""
    pieces = [certify._designed(c) for c in (*plan.chain_designed, plan.expected.v2perp_stated)]
    if effort == "desk":
        g2 = plan.generators()[1]
        slices = (g2.coefficient(0), g2.coefficient(g2.max_degree), g2.stack)
        pieces = [BlockCode(plan.source.field, m).min_distance(budget=DESK_ENUM_BUDGET).meet(p)
                  for m, p in zip(slices, pieces)]
    return DistanceBound.min_sum(*pieces, "chain")


@pytest.mark.parametrize("effort", EFFORTS)
def test_each_floor_holds_the_lower_bound(effort):
    floors = set()
    for plan in plans():
        dist = certify_plan(plan, effort=effort).data["distances"]
        bounds = {name: dist[side][name] for side in ("block", "convo")
                  for name in dist[side] if name != "provenance"}
        carried = {"d": plan.source_designed, "d_dual": plan.expected.v1_stated}
        for name, prov in {**dist["block"]["provenance"], **dist["convo"]["provenance"]}.items():
            route, floor, lower = prov["route"], prov["floor"], bounds[name]["lower"]
            assert floor == route or floor in FLOORS, (plan.params, name, prov)
            floors.add(floor)
            if floor == "chain":
                chain = chain_bound(plan, effort)
                assert name == "d2f_dual" and lower == chain.lower
                # the chain's own route states its whole bracket, and
                # any other route searched an open one
                if route == "chain":
                    assert bounds[name]["upper"] == chain.upper and bounds[name]["exact"]
                else:
                    assert not chain.exact
            elif floor == route:
                assert bounds[name]["exact"]
            elif floor == "designed":
                # a carried bound, never one a search computed
                assert name in carried and route == "bounded"
                assert lower == carried[name]
            elif floor == "d_dual":
                assert name == "d1f" and lower == bounds["d_dual"]["lower"]
            else:
                assert lower == 1
    want = {"designed", "d_dual", "chain"} | ({"enumeration", "dijkstra"} if effort == "desk" else set())
    assert want <= floors


WRONG_BOUND_ROW = FamilyParams("III-T6", 7, n=7, k=2, t=2)


@pytest.mark.parametrize("field", ["v1_stated", "chain_designed"])
def test_raised_carried_bound_is_refused_on_exact_routes(field):
    """At desk effort d_dual and the chain's first slice are enumerated
    exactly; a stated or carried bound 5 above either is met with that
    search and refused, where the search's own route used to ignore it."""
    plan = layout(WRONG_BOUND_ROW)
    dist = certify_plan(plan, effort="desk").data["distances"]
    assert dist["block"]["provenance"]["d_dual"]["route"] == "enumeration"
    if field == "v1_stated":
        raised = replace(plan, expected=replace(plan.expected, v1_stated=plan.expected.v1_stated + 5))
    else:
        raised = replace(plan, chain_designed=(plan.chain_designed[0] + 5, plan.chain_designed[1]))
    with pytest.raises(AqccError, match="the weight of a codeword"):
        certify_plan(raised, effort="desk")


def test_raised_chain_bound_is_refused_at_structure():
    """structure effort searches none of the chain's pieces, but the source
    distance's witness lies in every slice code of G2, whose rows are
    source parity rows: a raised chain_designed above its weight is
    refused, as desk refuses it against the slice's own search."""
    plan = layout(WRONG_BOUND_ROW)
    c0, cm = plan.chain_designed
    raised = replace(plan, chain_designed=(c0 + 5, cm + 5))
    with pytest.raises(AqccError, match="lower bound 8 exceeds 6, the weight of a codeword"):
        certify_plan(raised, effort="structure")


def test_construction_i_carries_no_designed_bound():
    """Seed rows carry no designed distance, so a construction-I bracket
    whose lower bound is 1 names floor none, not designed."""
    f5 = field_from_order(5)
    plan = construction_i_plan(f5, demo_vectors(f5, 8, [2, 1, 2, 1], seed=0), [2, 1, 2, 1])
    assert plan.expected.v1_stated is None and plan.chain_designed == (None, None)
    block = certify_plan(plan, effort="structure").data["distances"]["block"]
    assert block["d_dual"]["lower"] == 1
    assert block["provenance"]["d_dual"] == {"route": "bounded", "floor": "none"}


def chain_plans():
    """The desk golden rows and the seeded construction-I plans of the
    duality-chain check."""
    golden = [layout(FamilyParams(family, q, **kw)) for family, q, kw, *_ in REFERENCE_ROWS if q <= 8]
    seeded = []
    for q, partition, n, seed in DUALITY_SPECS:
        f = field_from_order(q)
        seeded.append(construction_i_plan(f, demo_vectors(f, n, partition, seed=seed), partition))
    return golden + seeded


def test_chain_bracket_contains_the_inner_dual_free_distance():
    """The chain's bracket holds the free distance of dual(G2), and its
    witness, a constant word that G2's stack checks, has weight its upper
    bound.  On the grid rows it lies outside V1-perp, G1's stack not
    checking it; a construction-I witness may lie inside."""
    plans = chain_plans()
    assert len(plans) == 23
    inside = []
    for plan in plans:
        g1, g2 = plan.generators()
        chain = chain_bound(plan, "desk")
        dfd = free_distance(dual_generator(g2))
        assert dfd.exact and chain.lower <= dfd.lower <= chain.upper, plan.params
        w = MatrixGF(g2.field, chain.witness)
        assert (g2.stack @ w.T).is_zero() and np.count_nonzero(w.a) == chain.upper
        if (g1.stack @ w.T).is_zero():
            inside.append((plan.params.q, plan.params.n, plan.params.partition))
    assert inside == [(2, 7, (1, 2, 1, 1))]


def test_open_chain_is_met_with_the_inner_dual_search():
    """At q = 32 the chain leaves d2f open on II-T2 i = 4 and i = 8; the
    search of dual(G2) closes i = 4 and tightens i = 8."""
    for i, opened, want in ((4, (3, 4), [3, 3]), (8, (3, 5), [3, 4])):
        plan = layout(FamilyParams("II-T2", 32, i=i))
        chain = chain_bound(plan, "desk")
        assert (chain.lower, chain.upper) == opened
        convo = certify_plan(plan, effort="desk").data["distances"]["convo"]
        assert [convo["d2f_dual"]["lower"], convo["d2f_dual"]["upper"]] == want
        assert convo["provenance"]["d2f_dual"] == {"route": "bounded", "floor": "chain"}
