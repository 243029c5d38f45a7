"""Every distance bracket names the source of its lower bound and proves
its upper bound with a codeword.

A bracket's floor says where its lower bound came from: the route's own
search, a designed bound the constructor carries, d_dual (the hint of the
outer free distance), chain (the hint of the inner dual's) or none.  Each
test here recomputes that source and checks it holds exactly that lower
bound; the witness tests multiply each witness by a parity check.
"""

from pathlib import Path

import numpy as np
import pytest

from aqcc import FamilyParams, certify
from aqcc.block import DESK_ENUM_BUDGET, BlockCode
from aqcc.certify import EFFORTS, certify_plan
from aqcc.convo import PolyMatrix, dual_generator, parse_poly_matrix
from aqcc.families import layout
from aqcc.matrix import MatrixGF
from aqcc.selftest import REFERENCE_ROWS
from aqcc.trellis import free_distance

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


def chain_bound(plan, effort: str) -> int:
    """min(d0 + dm, ds) over the inner generator's first slice, top slice
    and stack, recomputed as the certifier states it."""
    ch = plan.chain_designed
    if effort == "structure":
        return min(ch[0] + ch[1], ch[2])
    g2 = plan.generators()[1]
    slices = (g2.coefficient(0), g2.coefficient(g2.max_degree), g2.stack)
    d0, dm, ds = (BlockCode(plan.field, m, designed_lower=c).min_distance(budget=DESK_ENUM_BUDGET).lower
                  for m, c in zip(slices, ch))
    return min(d0 + dm, ds)


@pytest.mark.parametrize("effort", EFFORTS)
def test_each_floor_holds_the_lower_bound(effort):
    floors = set()
    for plan in plans():
        dist = certify_plan(plan, effort=effort).data["distances"]
        bounds = {name: dist[side][name] for side in ("block", "convo")
                  for name in dist[side] if name != "provenance"}
        designed = {"d": plan.source.designed_lower, "d_dual": plan.v1_designed}
        for name, prov in {**dist["block"]["provenance"], **dist["convo"]["provenance"]}.items():
            route, floor, lower = prov["route"], prov["floor"], bounds[name]["lower"]
            assert floor == route or floor in FLOORS, (plan.params, name, prov)
            floors.add(floor)
            if floor == route:
                assert bounds[name]["exact"]
            elif floor == "designed":
                # a carried bound, never one a search computed
                assert name in designed and route == "bounded"
                assert lower == designed[name]
            elif floor == "d_dual":
                assert name == "d1f" and lower == max(bounds["d_dual"]["lower"], 1)
            elif floor == "chain":
                assert name == "d2f_dual" and lower == chain_bound(plan, effort)
            else:
                assert lower == 1
    want = {"designed", "d_dual", "chain"} | ({"enumeration", "dijkstra"} if effort == "desk" else set())
    assert want <= floors
