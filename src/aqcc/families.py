"""Parameterized AQCC families built from BCH, RS, and GRS parity rows.

Every family follows the same recipe: take the parity-check matrix of a
block code whose rows come in per-exponent groups, assign each group to a
delay power, and split the result into an outer/inner generator pair.
layout (or construction_i_plan, from explicit rows) returns the
LayoutPlan that certify.certify_plan consumes.

One split rule serves every grid family.  It is written in offsets
j = 0..i from a centre exponent: offset j is parity group a - j of a BCH
source (a = n // 2) or an RS source (a = i), and row j of a GRS source
(i = n - k - 1).  Rule a (II-T3a, II-T4a, III-T5a, III-T6) pairs a
constant group with the delay group i, then 0 with t, in the outer code;
rule b (II-T3b, II-T4b, III-T5b, III-T8) pairs 0 with t alone; II-T2
pairs i - 2 with i - 1, then 0 with i.  The inner code pairs 0 with t
and takes the singles 1..t-1, or for II-T2 pairs i - 2 with i - 1 alone;
layout states the details.  The counting facts a layout relies on (group
sizes, window coverage, containment of the inner row set in the outer
one) are all re-verified downstream by the certifier, so a layout here is
a plan, not a trusted claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import BlockCode, bch_parity, grs_build, rs_parity
from .convo import PolyMatrix, _split
from .errors import IndependenceViolated, ParamOutOfRange, PartitionInvalid
from .gf import FiniteField, field_order
from .matrix import MatrixGF, field_from_order

# enumerate_family refuses a selection of more rows than this before it
# builds any; III-T6 at q = 128 selects 325 500, at q = 256 about 2.7 million
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
# the grid coordinates a family may set, in the order labels print them
GRID_NAMES = ("n", "k", "i", "t")


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

    def coordinates(self) -> dict[str, int]:
        """The set ones of n, k, i and t, in that order."""
        return {name: int(v) for name in GRID_NAMES if (v := getattr(self, name)) is not None}

    def label(self) -> str:
        parts = [f"q={self.q}"] + [f"{a}={v}" for a, v in self.coordinates().items()]
        if self.partition is not None:
            parts.append(f"partition={list(self.partition)}")
        return f"{self.family}({', '.join(parts)})"


@dataclass(frozen=True)
class ExpectedTuple:
    """Closed-form parameters a family instance is supposed to hit.

    v1_stated and v2perp_stated are the paper's free-distance bounds for
    the outer code V1 and the inner dual V2-perp, by side; dz_bound and
    dx_bound apply the convention that the larger bound is reported as
    the Z distance.  They are also the designed distances of the span of
    every outer coefficient row and of the code whose parity is the inner
    generator's stack.  Construction I states neither; every family both.
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
    """Split plan for one family instance, ready to split into generators.

    source_designed is the source's designed distance, and chain_designed
    those of two slice codes of the inner generator (degree-0 slice and
    top-degree slice); each is None where the construction carries none,
    as for seed rows.  The certifier meets each with its code's search.
    placements1 places the outer blocks' rows when the default placement
    does not; the inner blocks always take the default.
    """

    params: FamilyParams
    expected: ExpectedTuple
    source: BlockCode
    blocks1: tuple[MatrixGF, ...]
    blocks2: tuple[MatrixGF, ...]
    source_designed: int | None
    chain_designed: tuple[int | None, int | None]
    placements1: tuple[tuple[int, ...], ...] | None = None
    notes: tuple[str, ...] = ()

    def generators(self) -> tuple[PolyMatrix, PolyMatrix]:
        """G1 and G2 split from the blocks, both with the source parity as
        their seed.  The parity's one elimination, of [H | I], gives its
        echelon and a right inverse R.  G1's stack holds all of the parity
        rows, in another order (every grid family) or in the same one
        (construction I), and G2's stack some of them, so both are
        independent without a rank test and read their basic and reduced
        witnesses from R; G1's stack also shares the parity's echelon,
        which gives the source its kernel.  Blocks with other rows, as in a
        corrupted plan, eliminate their own rows as [S | I] and read their
        witnesses from that instead."""
        g1 = _split(self.blocks1, self.placements1, self.source.parity)
        g2 = _split(self.blocks2, None, self.source.parity)
        return g1, g2


def _field_need(family: str, q: int) -> str | None:
    """The family's field assumption when GF(q) misses it, else None."""
    try:
        p, l = field_order(q)  # refuses a huge q before factoring it
    except ValueError as exc:
        raise ParamOutOfRange(str(exc)) from None
    if family.startswith(("II-T2", "II-T3")):
        return None if p == 2 and l >= 4 else "q = 2^s with s >= 4"
    if family.startswith("II-T4"):
        return None if p != 2 and l >= 2 else "q = p^l with p odd and l >= 2"
    # construction I takes any prime power
    q_min = 8 if family.startswith("III-T5") else 5 if family.startswith("III-") else 2
    return None if q >= q_min else f"a prime power q >= {q_min}"


def _rule_a(family: str) -> bool:
    """Whether the outer code pairs a second group before (0, t): the
    families whose t stops two short of i (see layout)."""
    return family.endswith("a") or family == "III-T6"


def _grid(family: str, q: int):
    """The family's parameters in grid order, as (name, bounds) pairs.

    bounds maps the values of the parameters before it to the inclusive
    (lo, hi) range; this is the one statement of each family's hypotheses
    on i, t or n, k, t.
    """
    # t <= i - gap (or n - k - gap - 1, the last t that leaves a logical
    # qudit) and i >= gap + 1
    gap = 2 if _rule_a(family) else 1
    if family in ("III-T6", "III-T8"):
        return (
            ("n", lambda: (5, q)),
            ("k", lambda n: (1, n - 4)),
            ("t", lambda n, k: (1, n - k - gap - 1)),
        )
    a = (q + 1) // 2 if family.startswith("II-T4") else q // 2
    i_hi = q - 3 if family.startswith("III-T5") else a - 1
    if family == "II-T2":
        return (("i", lambda: (3, i_hi)),)
    return (("i", lambda: (gap + 1, i_hi)), ("t", lambda i: (1, i - gap)))


def validate_params(params: FamilyParams) -> None:
    """Raise ParamOutOfRange naming the first violated precondition: a grid
    family takes exactly its grid's parameters, within their bounds, and
    construction I exactly n and partition (construction_i_plan checks the
    sizes against its rows)."""
    fam, q = params.family, params.q
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    need = _field_need(fam, q)
    if need is not None:
        raise ParamOutOfRange(f"{fam} needs {need}, got q = {q}")
    grid = () if fam == "I" else _grid(fam, q)
    names = ["n", "partition"] if fam == "I" else [name for name, _ in grid]
    values = [getattr(params, name) for name in names]
    if any(v is None for v in values):
        raise ParamOutOfRange(f"{fam} needs {', '.join(names)}")
    extra = [name for name in (*GRID_NAMES, "partition")
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

    ranges maps grid parameters to inclusive (lo, hi) bounds.  Returns an
    empty list when q falls outside the family's field assumption, and
    raises ParamOutOfRange when q is not a prime power at all, a range
    names a parameter outside the grid or has lo > hi, the ranges select
    no point of the grid, or more than MAX_GRID_ROWS points, which is
    counted before any point is built.  Every point has a logical qudit:
    for III-T6 and III-T8 the paper's hypotheses admit one more t, where
    the closed form gives k = 0, and the grid stops before it.
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
    for name, (lo, hi) in ranges.items():
        if lo > hi:
            raise ParamOutOfRange(f"range {name}={lo}:{hi} is empty: {lo} > {hi}")
    if _field_need(family, q) is not None:
        return []

    def span(prefix):
        name, bounds = grid[len(prefix)]
        lo, hi = bounds(*prefix)
        lo2, hi2 = ranges.get(name, (lo, hi))
        return range(max(lo, lo2), min(hi, hi2) + 1)

    def heads(prefix=()):
        """Every prefix of all but the last parameter, in grid order."""
        if len(prefix) == len(grid) - 1:
            yield prefix
            return
        for x in span(prefix):
            yield from heads(prefix + (x,))

    selected = 0
    for head in heads():
        selected += len(span(head))
        if selected > MAX_GRID_ROWS:
            raise ParamOutOfRange(
                f"{family} over GF({q}) selects more than {MAX_GRID_ROWS} points; narrow the ranges"
            )
    if not selected and ranges:
        shown = ", ".join(f"{name}={lo}:{hi}" for name, (lo, hi) in ranges.items())
        raise ParamOutOfRange(f"{family} over GF({q}) has no point in range {shown}")
    out = []
    for head in heads():
        for x in span(head):
            p = FamilyParams(family, q, **dict(zip(names, head + (x,))))
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
    """Each list of row arrays stacked into one block.  The rows are cut
    from checked matrices or computed by the field, so they are in range,
    and astype gives each block a fresh int32 array to wrap."""
    return tuple(MatrixGF._wrap(field, np.concatenate(rows, axis=0).astype(np.int32))
                 for rows in stacks)


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


def default_grs_points(field: FiniteField, n: int) -> tuple[int, ...]:
    """Zero followed by the first n - 1 powers of the field generator."""
    return (0,) + tuple(field.exp(j) for j in range(n - 1))


def layout(params: FamilyParams) -> LayoutPlan:
    """Split plan for a validated parameter point; every grid point has a
    logical dimension of at least 1.

    Offset j = 0..i names parity group a - j of a BCH source (a = n // 2)
    or an RS source (a = i), and row j of a GRS source (i = n - k - 1).
    Pairs are (constant offset, delay offset); the outer code takes the
    remaining offsets 0..i as constant singles in ascending order:

    - rule a (II-T3a, II-T4a, III-T5a, III-T6): the outer code pairs
      (p, i), then (0, t); p = t + 1, and for III-T6 p = i - 2, or i - 1
      when t = i - 2.  The inner code pairs (0, t) with singles 1..t-1.
    - rule b (II-T3b, II-T4b, III-T5b, III-T8): the outer code pairs
      (0, t) alone; the inner code is as in rule a.
    - II-T2: the outer code pairs (i - 2, i - 1), then (0, i); the inner
      code pairs (i - 2, i - 1) only.

    Paired constant groups sit at the top of the generator, so the
    default placement lines each delay group up with its partner.  When
    group 0 is a single row under a two-row partner (II-T4, odd q), the
    partner is spread over delays one and two instead, giving one
    generator row of degree two in both codes.
    """
    validate_params(params)
    fam, t = params.family, params.t
    if fam == "I":
        raise ValueError("construction I builds from explicit vectors, not a grid point")
    expected = _closed_form(params)
    key = source_key(params)
    struct = build_source(key)
    field, groups, n = struct.field, struct.row_groups, expected.n
    if key[0] == "grs":
        i = n - params.k - 1
        group = [groups[j] for j in range(i + 1)]
    else:
        i = params.i
        a = n // 2 if key[0] == "bch" else i
        group = [groups[a - j] for j in range(i + 1)]
    if fam == "II-T2":
        outer, inner, inner_singles = [(i - 2, i - 1), (0, i)], [(i - 2, i - 1)], []
    else:
        inner, inner_singles = [(0, t)], range(1, t)
        partner = t + 1 if fam != "III-T6" else i - 1 if t == i - 2 else i - 2
        outer = [(partner, i), (0, t)] if _rule_a(fam) else inner
    paired = {j for pair in outer for j in pair}
    outer_singles = [j for j in range(i + 1) if j not in paired]
    # every rule's last outer pair is (0, d0)
    d0 = outer[-1][1]
    merged = group[0].shape[0] < group[d0].shape[0]
    notes, placements1 = (), None
    if merged:
        p0, p1, notes = _split_degenerate_partner(field, group[d0])
        notes = ("layout-reconstructed",) + notes

    def blocks(pairs, singles):
        const = [group[c] for c, _ in pairs] + [group[s] for s in singles]
        delay = [group[d] for _, d in pairs]
        if not merged:
            return _as_blocks(field, [const, delay])
        delay[-1] = p0[None, :]
        return _as_blocks(field, [const, delay, [p1[None, :]]])

    blocks1, blocks2 = blocks(outer, outer_singles), blocks(inner, inner_singles)
    if merged:
        merged_at = sum(group[c].shape[0] for c, _ in outer[:-1])
        placements1 = (tuple(range(blocks1[0].rows)), tuple(range(blocks1[1].rows)), (merged_at,))
    # the inner code's top-degree slice (p1, or the lone GRS row t) has
    # distance two exactly when it has no zero coordinate; for GRS the
    # point zero kills it for t >= 1, which the chain bound absorbs
    top = 2 if _everywhere_nonzero(blocks2[-1].a) else 1
    if fam == "II-T2":
        chain = (2, 2)
    elif fam.startswith("II-T3"):
        chain = (2 * t + 1, 2)
    elif fam.startswith("II-T4"):
        chain = (2 * t, top)
    elif fam.startswith("III-T5"):
        chain = (t + 1, 2)
    else:
        chain = (t + 1, top)
    return LayoutPlan(
        params=params,
        expected=expected,
        source=struct.code,
        blocks1=blocks1,
        blocks2=blocks2,
        source_designed=struct.designed,
        chain_designed=chain,
        placements1=placements1,
        notes=notes,
    )


def construction_i_plan(field: FiniteField, vectors, partition) -> LayoutPlan:
    """Split plan from explicit parity rows and an interleaved partition.

    partition lists row counts (|H_0|, |H_0'|, |H_1|, |H_1'|, ...); the
    outer generator stacks sum(H_i D^i) over sum(H_i' D^i) and the inner
    generator keeps only the auxiliary band.  Requires equal |H_i|,
    nonincreasing |H_i'| with at least one row each, and independent rows
    overall, which a right inverse of the rows proves.  A MatrixGF keeps
    its right_inverse, so rows that demo_vectors drew are not eliminated
    again here; the rows become the plan's source parity, the seed from
    which both generators read their witnesses as every family's do.
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
    if m.right_inverse() is None:
        raise IndependenceViolated("the supplied rows are linearly dependent")
    cuts = np.cumsum([0] + sizes)
    part = [m.a[cuts[j]:cuts[j + 1]] for j in range(len(sizes))]
    mains = part[0::2]
    auxes = part[1::2]
    blocks1 = _as_blocks(
        field, [[mains[j]] + ([auxes[j]] if auxes[j].shape[0] else []) for j in range(mu + 1)]
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
        source=BlockCode._independent(field, m),
        blocks1=blocks1,
        blocks2=blocks2,
        source_designed=None,
        chain_designed=(None, None),
    )


def demo_vectors(field: FiniteField, n: int, partition, seed: int = 0) -> MatrixGF:
    """Deterministic independent rows for construction I demonstrations:
    the first draw whose rows have a right inverse, which the returned
    matrix keeps with its echelon."""
    import random

    total = sum(int(s) for s in partition)
    if total > n:
        raise PartitionInvalid(f"{total} independent rows cannot fit in length {n}")
    q = field.q
    draw, bits = random.Random(seed).getrandbits, q.bit_length()
    for _ in range(256):
        # Random.randrange(q) for each entry, its rejection loop inlined: the
        # same draws from the same stream, without a method call per entry
        entries = []
        for _ in range(total * n):
            r = draw(bits)
            while r >= q:
                r = draw(bits)
            entries.append(r)
        m = MatrixGF(field, np.array(entries, dtype=np.int32).reshape(total, n))
        if m.right_inverse() is not None:
            return m
    raise IndependenceViolated(f"could not draw {total} independent rows of length {n}")
