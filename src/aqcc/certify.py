"""Certification pipeline for AQCC family instances.

One build path: families.layout (or construction_i_plan) makes a
LayoutPlan, and certify_plan derives the generator pair, re-verifies every
structural claim (ranks, reducedness, containment, symplectic
orthogonality, basicness, degree accounting), attaches whatever distance
statements the requested effort can certify, and emits a deterministic
JSON certificate.  certify_params is layout followed by certify_plan.

Each claim has one witness.  The source parity H is eliminated once, as
[H | I], for its echelon and a right inverse R, confirmed there by one
product.  G1's and G2's stacks hold rows of H, which R proves
independent, and each keeps the stack right inverse R_S read from R's
columns.  Each split records what R_S proves: a leading echelon, which
proves the generator reduced and hence of full rank, and a zero degree
gap, which proves it basic (Forney 1975).  Every G2 row is a G1 row, so
the containment witness that proves V2 <= V1 is the 0/1 selection of
them, which the rows' equal bytes prove.  G1's coefficient stack holds
all of H's rows and shares H's echelon, which the source's kernel, the
dual's witness row and H1's degree-0 kernel read.  d_dual is the
distance of the source's dual, which G1's coefficient rows span: one
product with the source's generator puts them in it, and the shared
echelon gives their rank, its dimension; a plan whose rows fail either
is refused.  H1 = dual(G1), the parity check of the stabilizer, is
built from kernels in closed form read from R_S.  G2's minimal dual is
built only at desk effort, where the chain leaves the free distance of
V2-perp open.  The stabilizer css.derive_aqcc returns is held as H1 and
G2, and its logical, n less its rows, is k1 - k2; the text of its halves
[H1; 0] and [0; G2] is the blocks' text with zero rows, not formatted
again.
Basicness also settles the rank of the stabilizer's truncations, so none
is expanded here: a basic G has a polynomial right inverse, so G(0) has
full row rank (Forney 1970), and the window of css.semi_infinite_expand
is block upper triangular with diagonal blocks [H1(0) 0; 0 G2(0)], H1
being a minimal basis.

Effort levels:
  structure  no distance enumeration; designed bounds and witness rows only
  desk       block and free distances within the given budgets

Every distance is a block.DistanceBound, and the certificate's provenance
copies its route and floor.  Each search returns only what it proved and
is met (DistanceBound.meet) with its floor: a bound the construction
carries, d_dual for the free distance of G1, or chain, min(d0 + dm, ds)
over the slices of G2, for that of the inner dual.  The stated bounds on
V1 and V2-perp, the designed distances of those codes, floor d_dual and
ds.  The source and its dual share one enumeration of whichever matrix
the budget admits, and the code of G2's first slice is the source's
dual when that slice's rows span the source code, which one product and
one rank show; its piece then reads d_dual's search.  A constant word
that G2's stack checks lies in V2-perp, so at desk the chain is [min(d0 +
dm, ds), ds], and only an open one is met with a search of dual(G2).  At
structure no slice is searched, and each chain piece is refused above
the weight of the source distance's witness, a codeword of every slice
code, which the lower-only chain there does not keep.
A carried or stated bound above an upper bound, a codeword's weight, is
refused.

Fault injection (for negative testing) corrupts the pipeline at three
distinct stages and must surface as three distinct exceptions:
  rank-condition  oversized delay block       -> RankConditionViolated
  mutate-row      inner row leaves the outer  -> ContainmentFailed
  swap-blocks     columns swapped after nest  -> SymplecticViolation
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from . import families
from .block import DESK_ENUM_BUDGET, BlockCode, DistanceBound
from .convo import PolyMatrix, contains, degree_gap, dual_generator, format_poly_matrix, is_reduced
from .css import StabilizerMatrix, assemble_stabilizer, build_nested_pair, derive_aqcc
from .errors import AqccError, NotBasic
from .matrix import MatrixGF
from .trellis import DEFAULT_STATE_BUDGET, DEFAULT_WORK_BUDGET, free_distance

EFFORTS = ("structure", "desk")
FAULTS = ("mutate-row", "rank-condition", "swap-blocks")


@dataclass(frozen=True)
class Budgets:
    """Caps for the three exhaustive searches the certifier may run."""

    enum: int = DESK_ENUM_BUDGET
    state: int = DEFAULT_STATE_BUDGET
    work: int = DEFAULT_WORK_BUDGET

    def __post_init__(self):
        for name in ("enum", "state", "work"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} budget must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class AqccCertificate:
    """Verified instance data plus the JSON document describing it."""

    data: dict
    stabilizer: StabilizerMatrix
    g1: PolyMatrix

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2) + "\n"

    @property
    def tuple_str(self) -> str:
        return self.data["tuple"]

    @property
    def n(self) -> int:
        return self.stabilizer.n

    @property
    def logical(self) -> int:
        return self.stabilizer.logical

    @property
    def gamma(self) -> int:
        return self.stabilizer.gamma

    @property
    def mu_star(self) -> int:
        return self.stabilizer.mu_star

    @property
    def dz_bound(self):
        return self.data["distances"]["aqcc"]["dz_bound"]

    @property
    def dx_bound(self):
        return self.data["distances"]["aqcc"]["dx_bound"]


def _fault_rank_condition(plan: families.LayoutPlan) -> families.LayoutPlan:
    """Move every degree-0 inner row behind the delay block so it outgrows kappa."""
    blocks = plan.blocks2
    b0 = blocks[0]
    empty = MatrixGF(b0.field, b0.a[:0])
    grown = MatrixGF(b0.field, np.concatenate([blocks[1].a, b0.a])) if len(blocks) > 1 else b0
    return replace(plan, blocks2=(empty, grown) + tuple(blocks[2:]))


def _fault_mutate_row(g1: PolyMatrix, g2: PolyMatrix, seed: int) -> NoReturn:
    """Perturb one constant coefficient of the inner generator until
    containment raises ContainmentFailed: it has left the outer row space."""
    field = g2.field
    rng = random.Random(seed)
    for _ in range(64):
        r = rng.randrange(g2.rows)
        c = rng.randrange(g2.cols)
        delta = 1 + rng.randrange(field.q - 1)
        coeffs = g2.c.copy()
        coeffs[0, r, c] = field.add(int(coeffs[0, r, c]), delta)
        contains(g1, PolyMatrix.from_coefficients(field, coeffs))
    raise AqccError("could not push the inner generator out of the outer code")


def _fault_swap_columns(h1: PolyMatrix, g2: PolyMatrix, seed: int) -> NoReturn:
    """Swap two inner columns until assembling the stabilizer raises
    SymplecticViolation: the pair is no longer symplectically flat."""
    rng = random.Random(seed)
    for _ in range(64):
        j1, j2 = rng.sample(range(g2.cols), 2)
        cols = list(range(g2.cols))
        cols[j1], cols[j2] = j2, j1
        assemble_stabilizer(h1, PolyMatrix.from_coefficients(g2.field, g2.c[:, :, cols]))
    raise AqccError("no column swap breaks the symplectic pairing here")


def _bound_json(b) -> dict:
    return {
        "lower": int(b.lower),
        "upper": None if b.upper is None else int(b.upper),
        "exact": bool(b.exact),
    }


def _designed(lower: int | None) -> DistanceBound:
    if lower is None:
        return DistanceBound(1, None, "designed", "none")
    return DistanceBound(lower, None, "designed", "designed")


def _provenance(b: DistanceBound) -> dict:
    return {"route": b.method, "floor": b.floor}


def _matrix_text(m) -> str:
    if isinstance(m, MatrixGF):
        m = PolyMatrix._wrap(m.field, m.a[None])
    return format_poly_matrix(m).replace("\n", "; ")


def _rows_text(*rows: str) -> str:
    """Matrix text from the text of its row blocks; an empty block adds no row."""
    return "; ".join(r for r in rows if r)


def _params_dict(params: families.FamilyParams) -> dict:
    out = params.coordinates()
    if params.partition is not None:
        out["partition"] = [int(s) for s in params.partition]
        out["mu"] = len(params.partition) // 2 - 1
    return out


def certify_plan(
    plan: families.LayoutPlan,
    *,
    effort: str = "desk",
    budgets: Budgets | None = None,
    fault: str | None = None,
    seed: int = 0,
) -> AqccCertificate:
    if effort not in EFFORTS:
        raise ValueError(f"effort must be one of {EFFORTS}, got {effort!r}")
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"fault must be one of {FAULTS}, got {fault!r}")
    budgets = budgets or Budgets()
    field = plan.source.field
    expected = plan.expected

    if fault == "rank-condition":
        plan = _fault_rank_condition(plan)
    g1, g2 = plan.generators()

    if not is_reduced(g1) or not is_reduced(g2):
        raise AqccError("split generator is not reduced")

    if fault == "mutate-row":
        _fault_mutate_row(g1, g2, seed)
    stab = derive_aqcc(build_nested_pair(g1, g2))
    if fault == "swap-blocks":
        _fault_swap_columns(stab.h1, g2, seed)

    kappa1, kappa2 = g1.rows, g2.rows
    # a split generator carries gap 0 from its split; any other matrix
    # reads its gap from its minimal dual
    for name, g in (("outer", g1), ("inner", g2)):
        gap = degree_gap(g)
        if gap:
            raise NotBasic(f"{name} generator is not basic: degree gap {gap}")
    mu = max(g1.max_degree, g2.max_degree, 0)

    # block-level distances: the source code and its dual, whose distance
    # floors the outer free distance when G1's coefficient rows span it
    source = plan.source
    if not (g1.stack @ source.generator.T).is_zero() or g1.stack.rank() != source.parity.rows:
        raise AqccError("the outer coefficient rows do not span the dual of the source code")
    enum_budget = 0 if effort == "structure" else budgets.enum
    source_d = source.min_distance(budget=enum_budget).meet(_designed(plan.source_designed))
    dual_search = source.dual().min_distance(budget=enum_budget)
    d_dual = dual_search.meet(_designed(expected.v1_stated))

    # chain pieces for the inner dual: first slice, top slice, full stack
    pieces = [_designed(c) for c in (*plan.chain_designed, expected.v2perp_stated)]
    if effort != "structure":
        g2_0 = g2.coefficient(0)
        slices = (g2_0, g2.coefficient(g2.max_degree), g2.stack)
        # the first slice checks the source's dual when its rows span the
        # source code, which one product and one rank show; its piece is
        # then the search d_dual ran
        spans = (g2_0 @ source.parity.T).is_zero() and g2_0.rank() == source.k
        searched = [dual_search] if spans else []
        searched += [BlockCode(field, m).min_distance(budget=budgets.enum)
                     for m in slices[len(searched):]]
        pieces = [b.meet(p) for b, p in zip(searched, pieces)]
    else:
        # G2's rows are source parity rows, so source_d's witness, of weight
        # w, lies in each slice code, which one product with G2's stack
        # shows degree by degree; a piece above w is refused
        w = source_d.witness
        missed = field._vmatmul(g2.stack.a, w.T).reshape(len(g2.c), g2.rows).any(axis=1)
        upper = DistanceBound(1, source_d.upper, "bounded", "none", w)
        for p, miss in zip(pieces, (missed[0], missed[-1], missed.any())):
            if not miss:
                p.meet(upper)
    d1f = DistanceBound(d_dual.lower, None, "designed", "d_dual")
    d2f = DistanceBound.min_sum(*pieces, "chain")
    if effort != "structure":
        kw = {"state_budget": budgets.state, "work_budget": budgets.work}
        d1f = free_distance(g1, **kw).meet(d1f)
        if not d2f.exact:
            d2f = free_distance(dual_generator(g2), **kw).meet(d2f)

    # closed-form cross checks; any miss means the layout or the formula
    # table is wrong, and certifying anyway would hide the defect
    if stab.logical != expected.k_formula:
        raise AqccError(
            f"logical dimension {stab.logical} differs from the closed form {expected.k_formula}"
        )
    if stab.gamma != expected.gamma_formula:
        raise AqccError(
            f"total degree {stab.gamma} differs from the closed form {expected.gamma_formula}"
        )
    # d1f is at least d_dual, which the stated v1 floors; the chain floors
    # d2f by less than the stated v2perp when d0 + dm is smaller
    stated = expected.v2perp_stated
    if d2f.upper is not None and stated is not None and d2f.upper < stated:
        raise AqccError(
            f"inner-dual free distance is at most {d2f.upper}, below the stated bound {stated}"
        )

    # dz, the larger side distance, lies between the larger lower and upper
    # bound, dx between the smaller ones; no upper bound counts as infinite
    lowers = (d1f.lower, d2f.lower)
    uppers = tuple(math.inf if b.upper is None else b.upper for b in (d1f, d2f))
    dz_b, dx_b = expected.dz_bound, expected.dx_bound
    dz_val = dz_b if dz_b is not None else max(lowers)
    dx_val = dx_b if dx_b is not None else min(lowers)
    tuple_str = (
        f"[({stab.n},{stab.logical},{stab.mu_star};{stab.gamma},"
        f"dz>={dz_val}/dx>={dx_val})]_{field.q}"
    )

    # the stabilizer's halves are [H1; 0] and [0; G2], so their text is its
    # two blocks' rows and zero rows, a zero entry being (0)
    h1_text, g2_text = _matrix_text(stab.h1), _matrix_text(stab.g2)
    zero_row = " ".join(["(0)"] * stab.n)
    data = {
        "family": plan.params.family,
        "q": field.q,
        "params": _params_dict(plan.params),
        "field": {
            "p": field.p,
            "l": field.l,
            "modulus": [int(c) for c in field.modulus],
        },
        "matrices": {
            "source_H": _matrix_text(source.parity),
            "G1": _matrix_text(g1),
            "G2": g2_text,
            "H1": h1_text,
            "stabilizer_X": _rows_text(h1_text, *[zero_row] * kappa2),
            "stabilizer_Z": _rows_text(*[zero_row] * stab.h1.rows, g2_text),
        },
        "checks": {
            "ranks": {
                "G1": kappa1,
                "G2": kappa2,
                "source": source.parity.rows,
            },
            "basic": {"G1": True, "G2": True},
            "reduced": {"G1": True, "G2": True},
            "containment": "verified",
            "symplectic": "zero",
            "degrees": {
                "gamma1": sum(g1.row_degrees),
                "gamma2": sum(g2.row_degrees),
                "gamma": stab.gamma,
                "mu": mu,
                "mu_star": stab.mu_star,
            },
        },
        "distances": {
            "block": {
                "d": _bound_json(source_d),
                "d_dual": _bound_json(d_dual),
                "provenance": {"d": _provenance(source_d), "d_dual": _provenance(d_dual)},
            },
            "convo": {
                "d1f": _bound_json(d1f),
                "d2f_dual": _bound_json(d2f),
                "provenance": {"d1f": _provenance(d1f), "d2f_dual": _provenance(d2f)},
            },
            "aqcc": {
                "dz_bound": dz_b,
                "dx_bound": dx_b,
            },
        },
        "tuple": tuple_str,
    }
    if max(lowers) == max(uppers):
        data["distances"]["aqcc"]["dz_exact"] = int(max(lowers))
    if min(lowers) == min(uppers):
        data["distances"]["aqcc"]["dx_exact"] = int(min(lowers))
    if plan.notes:
        data["notes"] = list(plan.notes)
    return AqccCertificate(data=data, stabilizer=stab, g1=g1)


def certify_params(
    params: families.FamilyParams,
    *,
    effort: str = "desk",
    budgets: Budgets | None = None,
    fault: str | None = None,
    seed: int = 0,
) -> AqccCertificate:
    """Build and certify one family grid point."""
    plan = families.layout(params)
    return certify_plan(plan, effort=effort, budgets=budgets, fault=fault, seed=seed)

