"""Parameterized AQCC families built from BCH, RS, and GRS parity rows.

Every family follows the same recipe: take the parity-check matrix of a
block code whose rows come in per-exponent groups, assign each group to a
delay power, and split the result into an outer/inner generator pair.
layout (or construction_i_plan, from explicit rows) returns the
LayoutPlan that certify.certify_plan consumes.  The pair layouts below fix
which group lands where; the counting facts they rely on (group sizes,
window coverage, containment of the inner row set in the outer one) are
all re-verified downstream by the certifier, so a layout here is a plan,
not a trusted claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import BlockCode, bch_parity, grs_build, rs_parity
from .convo import PolyMatrix, split_to_generator
from .errors import (
    IndependenceViolated,
    ParamOutOfRange,
    PartitionInvalid,
    ZeroLogicalDimension,
)
from .gf import MAX_Q, FiniteField, prime_power
from .matrix import MatrixGF, field_from_order

# enumerate_family refuses a selection of more rows than this before it
# builds any; III-T6 at q = 128 selects 333 250, at q = 256 over 2.7 million
MAX_GRID_ROWS = 1 << 20

FAMILIES = (
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


@dataclass(frozen=True)
class FamilyParams:
    """One point in a family's parameter grid."""

    family: str
    q: int
    i: int | None = None
    t: int | None = None
    n: int | None = None
    k: int | None = None
    partition: tuple[int, ...] | None = None

    def label(self) -> str:
        parts = [f"q={self.q}"]
        for name in ("n", "k", "i", "t"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        if self.partition is not None:
            parts.append(f"partition={list(self.partition)}")
        return f"{self.family}({', '.join(parts)})"


@dataclass(frozen=True)
class ExpectedTuple:
    """Closed-form parameters a family instance is supposed to hit.

    v1_stated and v2perp_stated are the paper's free-distance bounds for
    the outer code V1 and the inner dual V2-perp, by side; dz_bound and
    dx_bound apply the convention that the larger bound is reported as
    the Z distance.  Construction I states neither; every family both.
    """

    n: int
    k_formula: int
    gamma_formula: int
    v1_stated: int | None = None
    v2perp_stated: int | None = None

    @property
    def dz_bound(self) -> int | None:
        return None if self.v1_stated is None else max(self.v1_stated, self.v2perp_stated)

    @property
    def dx_bound(self) -> int | None:
        return None if self.v1_stated is None else min(self.v1_stated, self.v2perp_stated)


@dataclass(frozen=True)
class LayoutPlan:
    """Split plan for one family instance, ready for split_to_generator.

    chain_designed holds certified lower bounds for the three slice codes
    of the inner generator (degree-0 slice, top-degree slice, and the
    stack of all slices); v1_designed is a certified lower bound for the
    code spanned by every outer coefficient row.  Both feed the free
    distance search as trusted floors.  placements1 places the outer
    blocks' rows when the default placement does not; the inner blocks
    always take the default.
    """

    params: FamilyParams
    expected: ExpectedTuple
    field: FiniteField
    source: BlockCode
    blocks1: tuple[MatrixGF, ...]
    blocks2: tuple[MatrixGF, ...]
    v1_designed: int
    chain_designed: tuple[int, int, int]
    placements1: tuple[tuple[int, ...], ...] | None = None
    notes: tuple[str, ...] = ()

    def generators(self) -> tuple[PolyMatrix, PolyMatrix]:
        g1 = split_to_generator(self.blocks1, self.placements1)
        g2 = split_to_generator(self.blocks2)
        return g1, g2


def _field_need(family: str, q: int) -> str | None:
    """The family's field assumption when GF(q) misses it, else None."""
    if q > MAX_Q:  # refused before factoring, which a huge q would stall
        raise ParamOutOfRange(f"q = {q} exceeds the supported table size {MAX_Q}")
    try:
        p, l = prime_power(q)
    except ValueError as exc:
        raise ParamOutOfRange(str(exc)) from None
    if family.startswith(("II-T2", "II-T3")):
        return None if p == 2 and l >= 4 else "q = 2^s with s >= 4"
    if family.startswith("II-T4"):
        return None if p != 2 and l >= 2 else "q = p^l with p odd and l >= 2"
    q_min = 8 if family.startswith("III-T5") else 5
    return None if q >= q_min else f"a prime power q >= {q_min}"


def _grid(family: str, q: int):
    """The family's parameters in grid order, as (name, bounds) pairs.

    bounds maps the values of the parameters before it to the inclusive
    (lo, hi) range; this is the one statement of each family's hypotheses
    on i, t or n, k, t.
    """
    # t <= i - gap (or n - k - gap) and i >= gap + 1
    gap = 2 if family.endswith("a") or family == "III-T6" else 1
    if family in ("III-T6", "III-T8"):
        return (
            ("n", lambda: (5, q)),
            ("k", lambda n: (1, n - 4)),
            ("t", lambda n, k: (1, n - k - gap)),
        )
    a = (q + 1) // 2 if family.startswith("II-T4") else q // 2
    i_hi = q - 3 if family.startswith("III-T5") else a - 1
    if family == "II-T2":
        return (("i", lambda: (3, i_hi)),)
    return (("i", lambda: (gap + 1, i_hi)), ("t", lambda i: (1, i - gap)))


def validate_params(params: FamilyParams) -> None:
    """Raise ParamOutOfRange naming the first violated precondition."""
    fam, q = params.family, params.q
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    if fam == "I":
        return  # construction I is validated against its explicit partition
    need = _field_need(fam, q)
    if need is not None:
        raise ParamOutOfRange(f"{fam} needs {need}, got q = {q}")
    grid = _grid(fam, q)
    names = [name for name, _ in grid]
    values = [getattr(params, name) for name in names]
    if any(v is None for v in values):
        raise ParamOutOfRange(f"{fam} needs {', '.join(names)}")
    extra = [name for name in ("n", "k", "i", "t", "partition")
             if name not in names and getattr(params, name) is not None]
    if extra:
        raise ParamOutOfRange(f"{fam} takes only {', '.join(names)}, got {', '.join(extra)}")
    for j, (name, bounds) in enumerate(grid):
        lo, hi = bounds(*values[:j])
        if not lo <= values[j] <= hi:
            raise ParamOutOfRange(
                f"{fam} needs {lo} <= {name} <= {hi}, got {name} = {values[j]}"
            )


def _closed_form(params: FamilyParams) -> ExpectedTuple:
    """Closed-form tuple of a grid point the caller has already validated."""
    fam, q, i, t = params.family, params.q, params.i, params.t
    if fam == "II-T2":
        n = q + 1
        return ExpectedTuple(n, 2 * i - 4, 6, n - 2 * i - 1, 3)
    if fam == "II-T3a":
        n = q + 1
        return ExpectedTuple(n, 2 * i - 2 * t - 2, 6, n - 2 * i - 1, 2 * t + 3)
    if fam == "II-T3b":
        n = q + 1
        return ExpectedTuple(n, 2 * i - 2 * t, 4, n - 2 * i - 1, 2 * t + 3)
    if fam == "II-T4a":
        n = q + 1
        return ExpectedTuple(n, 2 * i - 2 * t - 2, 6, n - 2 * i, 2 * t + 2)
    if fam == "II-T4b":
        n = q + 1
        return ExpectedTuple(n, 2 * i - 2 * t, 4, n - 2 * i, 2 * t + 2)
    if fam == "III-T5a":
        return ExpectedTuple(q - 1, i - t - 1, 3, q - i - 1, t + 2)
    if fam == "III-T5b":
        return ExpectedTuple(q - 1, i - t, 2, q - i - 1, t + 2)
    n, k = params.n, params.k
    if fam == "III-T6":
        return ExpectedTuple(n, n - k - t - 2, 3, k + 1, t + 2)
    if fam == "III-T8":
        return ExpectedTuple(n, n - k - t - 1, 2, k + 1, t + 2)
    raise ValueError(f"no closed-form tuple for family {fam!r}")


def expected_tuple(params: FamilyParams) -> ExpectedTuple:
    """Closed-form (n, k, gamma, dz, dx) for a validated parameter point."""
    validate_params(params)
    return _closed_form(params)


def enumerate_family(family: str, q: int, ranges: dict | None = None):
    """All (params, expected) points of a family over GF(q).

    Returns an empty list when q falls outside the family's field
    assumption, and raises ParamOutOfRange only when q is not a prime
    power at all, a range names a parameter outside the grid, or the
    ranges select more than MAX_GRID_ROWS points, which is counted before
    any point is built.  Points whose logical dimension formula gives zero
    are included; building them is what fails.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "I":
        raise ValueError("construction I has no parameter grid to enumerate")
    ranges = ranges or {}
    grid = _grid(family, q)
    names = [name for name, _ in grid]
    stray = [name for name in ranges if name not in names]
    if stray:
        raise ParamOutOfRange(
            f"{family} ranges over {', '.join(names)} only, got {', '.join(stray)}"
        )
    if _field_need(family, q) is not None:
        return []

    def span(prefix):
        name, bounds = grid[len(prefix)]
        lo, hi = bounds(*prefix)
        lo2, hi2 = ranges.get(name, (lo, hi))
        return range(max(lo, lo2), min(hi, hi2) + 1)

    def count(prefix):
        """Points below prefix, or a number past MAX_GRID_ROWS."""
        if len(prefix) == len(grid) - 1:
            return len(span(prefix))
        total = 0
        for x in span(prefix):
            total += count(prefix + (x,))
            if total > MAX_GRID_ROWS:
                break
        return total

    def walk(prefix):
        if len(prefix) == len(grid):
            yield dict(zip(names, prefix))
            return
        for x in span(prefix):
            yield from walk(prefix + (x,))

    if count(()) > MAX_GRID_ROWS:
        raise ParamOutOfRange(
            f"{family} over GF({q}) selects more than {MAX_GRID_ROWS} points; narrow the ranges"
        )
    out = []
    for kw in walk(()):
        p = FamilyParams(family, q, **kw)
        out.append((p, _closed_form(p)))
    return out


def source_key(params: FamilyParams) -> tuple:
    """The arguments that fix a grid point's source code, led by its kind:
    ("bch", q, i) for the II families, ("rs", q, i) for III-T5a/b and
    ("grs", q, n, k) for III-T6/T8.  Points with one key share a source."""
    fam, q = params.family, params.q
    if fam.startswith("II-"):
        return ("bch", q, params.i)
    if fam.startswith("III-T5"):
        return ("rs", q, params.i)
    if fam in ("III-T6", "III-T8"):
        return ("grs", q, params.n, params.k)
    raise ValueError(f"{fam} has no family source code")


def build_source(key: tuple):
    """The source code a source_key names, with its per-exponent row groups
    (a CyclicStructure or GrsCode: .code and .row_groups)."""
    kind, q, *args = key
    field = field_from_order(q)
    if kind == "bch":  # length q + 1, exponents centred on a = n // 2
        (i,) = args
        n = q + 1
        return bch_parity(field, n, i + 2, b=n // 2 - i)
    if kind == "rs":
        (i,) = args
        return rs_parity(field, q - 1, i + 2, b=0)
    n, k = args
    return grs_build(field, default_grs_points(field, n), (1,) * n, k)


def _as_blocks(field: FiniteField, stacks: list[list[np.ndarray]]) -> tuple[MatrixGF, ...]:
    """Each list of row arrays stacked into one block."""
    return tuple(MatrixGF(field, np.concatenate(rows, axis=0)) for rows in stacks)


def _pair_layout(params, expected, source, groups, outer, inner, *, v1_designed,
                 chain_designed) -> LayoutPlan:
    """Plan of the standard layout: paired groups first, then singles.

    outer and inner are (pairs, singles) for G1 and G2; pairs are
    (constant exponent, delay exponent).  The default placement already
    lines each delay group up with its partner because the paired
    constant groups sit at the top of the generator.
    """
    def blocks(pairs, singles):
        return _as_blocks(source.field, [
            [groups[c] for c, _ in pairs] + [groups[s] for s in singles],
            [groups[d] for _, d in pairs],
        ])

    return LayoutPlan(
        params=params,
        expected=expected,
        field=source.field,
        source=source,
        blocks1=blocks(*outer),
        blocks2=blocks(*inner),
        v1_designed=v1_designed,
        chain_designed=chain_designed,
    )


def _everywhere_nonzero(row: np.ndarray) -> bool:
    return bool(np.all(row != 0))


def _split_degenerate_partner(field: FiniteField, group: np.ndarray):
    """Basis (p0, p1) of a two-row group with p1 free of zero coordinates.

    p1 becomes the top-degree slice of the merged generator row, and a
    zero coordinate there would cost the slice code a distance unit, so
    try the plain rows first and then the r0 + c*r1 line.
    """
    r0, r1 = group[0], group[1]
    candidates = [(r0, r1), (r1, r0)]
    for c in range(1, field.q):
        candidates.append((r0, field.add(r0, field.mul(c, r1))))
    for p0, p1 in candidates:
        if _everywhere_nonzero(p1):
            return np.array(p0), np.array(p1), ()
    return np.array(r0), np.array(r1), ("top-degree slice of the merged row has a zero coordinate",)


def _layout_bch_pairs(params: FamilyParams, expected: ExpectedTuple) -> LayoutPlan:
    """Families II-T2, II-T3a, II-T3b over GF(2^s), length q + 1."""
    fam, q, i, t = params.family, params.q, params.i, params.t
    n, a = q + 1, q // 2
    struct = build_source(source_key(params))
    groups = struct.row_groups
    if fam == "II-T2":
        pairs1 = [(a - i + 2, a - i + 1), (a, a - i)]
        singles1 = list(range(a - 1, a - i + 2, -1))
        pairs2, singles2 = [(a - i + 2, a - i + 1)], []
        chain = (2, 2, 3)
    elif fam == "II-T3a":
        pairs1 = [(a - t - 1, a - i), (a, a - t)]
        singles1 = list(range(a - 1, a - t, -1)) + list(range(a - t - 2, a - i, -1))
        pairs2 = [(a, a - t)]
        singles2 = list(range(a - 1, a - t, -1))
        chain = (2 * t + 1, 2, 2 * t + 3)
    else:
        pairs1 = [(a, a - t)]
        singles1 = list(range(a - 1, a - t, -1)) + list(range(a - t - 1, a - i - 1, -1))
        pairs2 = [(a, a - t)]
        singles2 = list(range(a - 1, a - t, -1))
        chain = (2 * t + 1, 2, 2 * t + 3)
    return _pair_layout(params, expected, struct.code, groups, (pairs1, singles1),
                        (pairs2, singles2), v1_designed=n - 2 * i - 1, chain_designed=chain)


def _layout_bch_merged(params: FamilyParams, expected: ExpectedTuple) -> LayoutPlan:
    """Families II-T4a, II-T4b over odd GF(p^l), length q + 1.

    n is even here, so the exponent a = n/2 contributes a single parity
    row; its pair partner is spread over delays one and two instead,
    giving one generator row of degree two in both the outer and inner
    matrices.
    """
    fam, q, i, t = params.family, params.q, params.i, params.t
    n = q + 1
    a = n // 2
    struct = build_source(source_key(params))
    field = struct.field
    groups = struct.row_groups
    if groups[a].shape[0] != 1:
        raise AssertionError("exponent n/2 should expand to a single row")
    p0, p1, notes = _split_degenerate_partner(field, groups[a - t])
    merged_const = groups[a]
    if fam == "II-T4a":
        head = [groups[a - t - 1], merged_const]
        singles1 = list(range(a - 1, a - t, -1)) + list(range(a - t - 2, a - i, -1))
        d_rows = [groups[a - i], p0[None, :]]
        merged_at = 2  # after the two rows of the leading pair
    else:
        head = [merged_const]
        singles1 = list(range(a - 1, a - t, -1)) + list(range(a - t - 1, a - i - 1, -1))
        d_rows = [p0[None, :]]
        merged_at = 0
    const1 = head + [groups[s] for s in singles1]
    k1 = sum(m.shape[0] for m in const1)
    blocks1 = _as_blocks(field, [const1, d_rows, [p1[None, :]]])
    placements1 = (
        tuple(range(k1)),
        tuple(range(sum(m.shape[0] for m in d_rows))),
        (merged_at,),
    )
    singles2 = list(range(a - 1, a - t, -1))
    const2 = [merged_const] + [groups[s] for s in singles2]
    blocks2 = _as_blocks(field, [const2, [p0[None, :]], [p1[None, :]]])
    d2_top = 2 if _everywhere_nonzero(p1) else 1
    return LayoutPlan(
        params=params,
        expected=expected,
        field=field,
        source=struct.code,
        blocks1=blocks1,
        blocks2=blocks2,
        v1_designed=n - 2 * i,
        chain_designed=(2 * t, d2_top, 2 * t + 2),
        placements1=placements1,
        notes=("layout-reconstructed",) + notes,
    )


def _layout_rs_pairs(params: FamilyParams, expected: ExpectedTuple) -> LayoutPlan:
    """Families III-T5a, III-T5b: Reed-Solomon rows, length q - 1."""
    fam, i, t = params.family, params.i, params.t
    n = params.q - 1
    struct = build_source(source_key(params))
    groups = struct.row_groups
    if fam == "III-T5a":
        pairs1 = [(i - t - 1, 0), (i, i - t)]
        singles1 = list(range(i - 1, i - t, -1)) + list(range(i - t - 2, 0, -1))
    else:
        pairs1 = [(i, i - t)]
        singles1 = list(range(i - 1, i - t, -1)) + list(range(i - t - 1, -1, -1))
    pairs2 = [(i, i - t)]
    singles2 = list(range(i - 1, i - t, -1))
    return _pair_layout(params, expected, struct.code, groups, (pairs1, singles1),
                        (pairs2, singles2), v1_designed=n - i, chain_designed=(t + 1, 2, t + 2))


def default_grs_points(field: FiniteField, n: int) -> tuple[int, ...]:
    """Zero followed by the first n - 1 powers of the field generator."""
    return (0,) + tuple(field.exp(j) for j in range(n - 1))


def _layout_grs(params: FamilyParams, expected: ExpectedTuple) -> LayoutPlan:
    """Families III-T6, III-T8: GRS parity rows, one per degree r."""
    fam, n, k, t = params.family, params.n, params.k, params.t
    grs = build_source(source_key(params))
    groups = grs.row_groups
    r_top = n - k - 1
    if fam == "III-T6":
        lead = n - k - 3 if t != n - k - 3 else n - k - 2
        pairs1 = [(lead, r_top), (0, t)]
        singles1 = list(range(1, t)) + [r for r in range(t + 1, r_top) if r != lead]
    else:
        pairs1 = [(0, t)]
        singles1 = list(range(1, t)) + list(range(t + 1, r_top + 1))
    pairs2 = [(0, t)]
    singles2 = list(range(1, t))
    # the slice through delay one is the lone row t; its distance is two
    # exactly when that row has no zero coordinate (point zero kills it
    # for t >= 1, which the chain bound absorbs without loss)
    row_t = grs.code.parity.a[t]
    d_mid = 2 if _everywhere_nonzero(row_t) else 1
    return _pair_layout(params, expected, grs.code, groups, (pairs1, singles1),
                        (pairs2, singles2), v1_designed=k + 1,
                        chain_designed=(t + 1, d_mid, t + 2))


def layout(params: FamilyParams) -> LayoutPlan:
    """Split plan for a validated parameter point.

    Raises ZeroLogicalDimension for grid points whose logical dimension
    formula is zero or negative; they enumerate fine but cannot build.
    """
    validate_params(params)
    fam = params.family
    if fam == "I":
        raise ValueError("construction I builds from explicit vectors, not a grid point")
    expected = _closed_form(params)
    if expected.k_formula <= 0:
        raise ZeroLogicalDimension(f"{params.label()} has logical dimension <= 0")
    if fam in ("II-T2", "II-T3a", "II-T3b"):
        return _layout_bch_pairs(params, expected)
    if fam in ("II-T4a", "II-T4b"):
        return _layout_bch_merged(params, expected)
    if fam in ("III-T5a", "III-T5b"):
        return _layout_rs_pairs(params, expected)
    return _layout_grs(params, expected)


def construction_i_plan(field: FiniteField, vectors, partition) -> LayoutPlan:
    """Split plan from explicit parity rows and an interleaved partition.

    partition lists row counts (|H_0|, |H_0'|, |H_1|, |H_1'|, ...); the
    outer generator stacks sum(H_i D^i) over sum(H_i' D^i) and the inner
    generator keeps only the auxiliary band.  Requires equal |H_i|,
    nonincreasing |H_i'| with at least one row each, and independent rows
    overall.  A MatrixGF keeps its echelon, so rows that demo_vectors
    ranked are not eliminated again here.
    """
    m = vectors if isinstance(vectors, MatrixGF) else MatrixGF(field, np.asarray(vectors))
    sizes = [int(s) for s in partition]
    if len(sizes) < 4 or len(sizes) % 2:
        raise PartitionInvalid(
            f"partition needs 2(mu + 1) >= 4 interleaved sizes, got {len(sizes)}"
        )
    if any(s < 0 for s in sizes):
        raise PartitionInvalid("partition sizes must be nonnegative")
    if sum(sizes) != m.rows:
        raise PartitionInvalid(
            f"partition covers {sum(sizes)} rows but {m.rows} were given"
        )
    kappas = sizes[0::2]
    primes = sizes[1::2]
    mu = len(kappas) - 1
    kappa = kappas[0]
    if kappa < 1:
        raise PartitionInvalid("the main blocks need at least one row")
    if any(s != kappa for s in kappas):
        raise PartitionInvalid(f"main block sizes {kappas} must all equal {kappa}")
    if any(p < 1 for p in primes):
        raise PartitionInvalid("every auxiliary block needs at least one row")
    if any(primes[j] < primes[j + 1] for j in range(mu)):
        raise PartitionInvalid(f"auxiliary sizes {primes} must be nonincreasing")
    if m.rank() != m.rows:
        raise IndependenceViolated("the supplied rows are linearly dependent")
    cuts = np.cumsum([0] + sizes)
    part = [m.a[cuts[j]:cuts[j + 1]] for j in range(len(sizes))]
    mains = part[0::2]
    auxes = part[1::2]
    blocks1 = _as_blocks(
        field, [[mains[j]] + ([auxes[j]] if auxes[j].shape[0] else []) for j in range(mu + 1)]
    )
    placements1 = tuple(
        tuple(range(kappa)) + tuple(range(kappa, kappa + primes[j]))
        for j in range(mu + 1)
    )
    blocks2 = _as_blocks(field, [[a] for a in auxes])
    aux_total = sum(primes[1:])
    expected = ExpectedTuple(
        n=m.cols,
        k_formula=kappa,
        gamma_formula=mu * kappa + 2 * aux_total,
    )
    params = FamilyParams(family="I", q=field.q, n=m.cols, partition=tuple(sizes))
    return LayoutPlan(
        params=params,
        expected=expected,
        field=field,
        source=BlockCode._independent(field, m, name=f"seed rows ({m.rows} x {m.cols})"),
        blocks1=blocks1,
        blocks2=blocks2,
        v1_designed=1,
        chain_designed=(1, 1, 1),
        placements1=placements1,
    )


def demo_vectors(field: FiniteField, n: int, partition, seed: int = 0) -> MatrixGF:
    """Deterministic independent rows for construction I demonstrations."""
    import random

    total = sum(int(s) for s in partition)
    if total > n:
        raise PartitionInvalid(f"{total} independent rows cannot fit in length {n}")
    rng = random.Random(seed)
    for _ in range(256):
        a = np.array(
            [[rng.randrange(field.q) for _ in range(n)] for _ in range(total)],
            dtype=np.int32,
        )
        m = MatrixGF(field, a)
        if m.rank() == total:
            return m
    raise IndependenceViolated(f"could not draw {total} independent rows of length {n}")
