"""Certification pipeline for AQCC family instances.

One build path: families.layout (or construction_i_plan) makes a
LayoutPlan, and certify_plan derives the generator pair, re-verifies every
structural claim (ranks, reducedness, containment, symplectic
orthogonality, basicness, degree accounting), attaches whatever distance
statements the requested effort can certify, and emits a deterministic
JSON certificate.  certify_params is layout followed by certify_plan.

Each claim has one witness.  The leading echelons, one elimination per
generator that every later step reads, prove G1 and G2 reduced and hence
of full rank, and the containment witness proves V2 <= V1.  G1's
coefficient stack is eliminated once, by split_to_generator's
independence check; the span code's kernel and witness row read that
echelon.  derive_aqcc builds the minimal duals once, each recording its
generator's degree gap, which is 0 exactly when the generator is basic
(Forney 1975); the dual of G1 is the parity check of the stabilizer.

Effort levels:
  structure  no distance enumeration; designed bounds and witness rows only
  desk       block and free distances within the given budgets

Fault injection (for negative testing) corrupts the pipeline at three
distinct stages and must surface as three distinct exceptions:
  rank-condition  oversized delay block       -> RankConditionViolated
  mutate-row      inner row leaves the outer  -> ContainmentFailed
  swap-blocks     columns swapped after nest  -> SymplecticViolation
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from . import families
from .block import DESK_ENUM_BUDGET, BlockCode
from .convo import PolyMatrix, contains, degree_accounting, degree_gap, format_poly_matrix, is_reduced
from .css import AqccParameters, assemble_stabilizer, build_nested_pair, derive_aqcc, semi_infinite_expand
from .errors import AqccError, ContainmentFailed, NotBasic
from .matrix import MatrixGF, vstack
from .trellis import DEFAULT_STATE_BUDGET, DEFAULT_WORK_BUDGET, FreeDistanceResult, free_distance

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
    aqcc: AqccParameters
    expected: families.ExpectedTuple
    g1: PolyMatrix
    g2: PolyMatrix

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2) + "\n"

    @property
    def tuple_str(self) -> str:
        return self.data["tuple"]

    @property
    def n(self) -> int:
        return self.aqcc.n

    @property
    def logical(self) -> int:
        return self.aqcc.logical

    @property
    def gamma(self) -> int:
        return self.aqcc.gamma

    @property
    def mu_star(self) -> int:
        return self.aqcc.mu_star

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
    grown = vstack([blocks[1], b0]) if len(blocks) > 1 else b0
    return replace(plan, blocks2=(empty, grown) + tuple(blocks[2:]))


def _fault_mutate_row(g1: PolyMatrix, g2: PolyMatrix, seed: int) -> PolyMatrix:
    """Perturb one constant coefficient of the inner generator until it
    leaves the outer row space."""
    field = g2.field
    rng = random.Random(seed)
    for _ in range(64):
        r = rng.randrange(g2.rows)
        c = rng.randrange(g2.cols)
        delta = 1 + rng.randrange(field.q - 1)
        coeffs = g2.c.copy()
        coeffs[0, r, c] = field.add(int(coeffs[0, r, c]), delta)
        cand = PolyMatrix.from_coefficients(field, coeffs)
        try:
            contains(g1, cand)
        except ContainmentFailed:
            return cand
    raise AqccError("could not push the inner generator out of the outer code")


def _fault_swap_columns(h1: PolyMatrix, g2: PolyMatrix, seed: int) -> PolyMatrix:
    """Swap two inner columns so the pair is no longer symplectically flat."""
    rng = random.Random(seed)
    for _ in range(64):
        j1, j2 = rng.sample(range(g2.cols), 2)
        cols = list(range(g2.cols))
        cols[j1], cols[j2] = j2, j1
        cand = PolyMatrix.from_coefficients(g2.field, g2.c[:, :, cols])
        mu = max(h1.max_degree, cand.max_degree, 0)
        if (h1 @ cand.reverse(mu).T).max_degree >= 0:
            return cand
    raise AqccError("no column swap breaks the symplectic pairing here")


def _distance_tag(b) -> str:
    if b.exact:
        return "exact-computed"
    if b.lower > 1:
        return "formula-from-paper"
    return "bounded"


def _bound_json(b) -> dict:
    return {
        "lower": int(b.lower),
        "upper": None if b.upper is None else int(b.upper),
        "exact": bool(b.exact),
    }


def _matrix_text(m) -> str:
    if isinstance(m, MatrixGF):
        m = PolyMatrix.from_coefficients(m.field, [m.a])
    return format_poly_matrix(m, header=False).replace("\n", "; ")


def _params_dict(params: families.FamilyParams) -> dict:
    out = {}
    for name in ("n", "k", "i", "t"):
        v = getattr(params, name)
        if v is not None:
            out[name] = int(v)
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
    field = plan.field
    expected = plan.expected
    notes = list(plan.notes)

    if fault == "rank-condition":
        plan = _fault_rank_condition(plan)
    g1, g2 = plan.generators()

    if not is_reduced(g1) or not is_reduced(g2):
        raise AqccError("split generator is not reduced")

    if fault == "mutate-row":
        g2 = _fault_mutate_row(g1, g2, seed)
    par = derive_aqcc(build_nested_pair(g1, g2))
    if fault == "swap-blocks":
        assemble_stabilizer(par.h1, _fault_swap_columns(par.h1, g2, seed))
        raise AqccError("fault injection failed to break the symplectic check")

    kappa1, kappa2 = g1.rows, g2.rows
    deg1 = degree_accounting(g1)
    deg2 = degree_accounting(g2)
    for name, g in (("outer", g1), ("inner", g2)):
        gap = degree_gap(g)  # recorded when derive_aqcc built its dual
        if gap:
            raise NotBasic(f"{name} generator is not basic: degree gap {gap}")
    mu = max(g1.max_degree, g2.max_degree, 0)

    # block-level distances: the source code and the span of the outer
    # coefficient rows (whose distance floors the outer free distance)
    enum_budget = 0 if effort == "structure" else budgets.enum
    source_d = plan.source.min_distance(budget=enum_budget)
    # g1.stack carries the echelon split_to_generator proved independence
    # on, which the kernel and any witness row read in turn
    s1 = BlockCode.from_generator(field, g1.stack, designed_lower=plan.v1_designed)
    d_dual = s1.min_distance(budget=enum_budget)

    # chain pieces for the inner dual: first slice, top slice, full stack
    ch = plan.chain_designed
    if effort == "structure":
        chain_lo = min(ch[0] + ch[1], ch[2])
    else:
        c0 = BlockCode(field, g2.coefficient(0), designed_lower=ch[0])
        cm = BlockCode(field, g2.coefficient(g2.max_degree), designed_lower=ch[1])
        cs = BlockCode(field, g2.stack, designed_lower=ch[2])
        d0 = c0.min_distance(budget=budgets.enum)
        dm = cm.min_distance(budget=budgets.enum)
        ds = cs.min_distance(budget=budgets.enum)
        chain_lo = min(d0.lower + dm.lower, ds.lower)
    if chain_lo < min(ch[0] + ch[1], ch[2]):
        raise AqccError("computed chain bound fell below its designed floor")

    if effort == "structure":
        d1f = FreeDistanceResult(max(d_dual.lower, 1), None, "designed", deg1.gamma)
        d2f = FreeDistanceResult(chain_lo, None, "designed", deg2.gamma)
    else:
        d1f = free_distance(
            g1,
            state_budget=budgets.state,
            work_budget=budgets.work,
            lower_hint=max(d_dual.lower, 1),
        )
        d2f = free_distance(
            par.v2_dual,
            state_budget=budgets.state,
            work_budget=budgets.work,
            lower_hint=chain_lo,
        )
        par = par.with_distances(d1f, d2f)

    # closed-form cross checks; any miss means the layout or the formula
    # table is wrong, and certifying anyway would hide the defect
    if par.logical != expected.k_formula:
        raise AqccError(
            f"logical dimension {par.logical} differs from the closed form {expected.k_formula}"
        )
    if par.gamma != expected.gamma_formula:
        raise AqccError(
            f"total degree {par.gamma} differs from the closed form {expected.gamma_formula}"
        )
    if d1f.exact and expected.v1_stated is not None and d1f.lower < expected.v1_stated:
        raise AqccError(
            f"exact outer free distance {d1f.lower} breaks the stated bound {expected.v1_stated}"
        )
    if d2f.exact and expected.v2perp_stated is not None and d2f.lower < expected.v2perp_stated:
        raise AqccError(
            f"exact inner-dual free distance {d2f.lower} breaks the stated bound {expected.v2perp_stated}"
        )

    if effort != "structure":
        ex = semi_infinite_expand(par.stabilizer, frames=par.mu_star + 2)
        if ex.defect:
            notes.append(f"expansion rank defect {ex.defect} at {ex.frames} frames")

    dz_b, dx_b = expected.dz_bound, expected.dx_bound
    dz_val = dz_b if dz_b is not None else (par.dz.lower if par.dz else 1)
    dx_val = dx_b if dx_b is not None else (par.dx.lower if par.dx else 1)
    tuple_str = (
        f"[({par.n},{par.logical},{par.mu_star};{par.gamma},"
        f"dz>={dz_val}/dx>={dx_val})]_{field.q}"
    )

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
            "source_H": _matrix_text(plan.source.parity),
            "G1": _matrix_text(g1),
            "G2": _matrix_text(g2),
            "H1": _matrix_text(par.h1),
            "stabilizer_X": _matrix_text(par.stabilizer.x_part),
            "stabilizer_Z": _matrix_text(par.stabilizer.z_part),
        },
        "checks": {
            "ranks": {
                "G1": kappa1,
                "G2": kappa2,
                "source": plan.source.parity.rows,
            },
            "basic": {"G1": True, "G2": True},
            "reduced": {"G1": True, "G2": True},
            "containment": "verified",
            "symplectic": "zero",
            "degrees": {
                "gamma1": deg1.gamma,
                "gamma2": deg2.gamma,
                "gamma": par.gamma,
                "mu": mu,
                "mu_star": par.mu_star,
            },
        },
        "distances": {
            "block": {
                "d": _bound_json(source_d),
                "d_dual": _bound_json(d_dual),
                "provenance": {
                    "d": _distance_tag(source_d),
                    "d_dual": _distance_tag(d_dual),
                },
            },
            "convo": {
                "d1f": _bound_json(d1f),
                "d2f_dual": _bound_json(d2f),
                "provenance": {
                    "d1f": _distance_tag(d1f),
                    "d2f_dual": _distance_tag(d2f),
                },
            },
            "aqcc": {
                "dz_bound": dz_b,
                "dx_bound": dx_b,
            },
        },
        "tuple": tuple_str,
    }
    if par.dz is not None and par.dz.exact:
        data["distances"]["aqcc"]["dz_exact"] = int(par.dz.lower)
    if par.dx is not None and par.dx.exact:
        data["distances"]["aqcc"]["dx_exact"] = int(par.dx.lower)
    if notes:
        data["notes"] = notes
    return AqccCertificate(data=data, aqcc=par, expected=expected, g1=g1, g2=g2)


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

