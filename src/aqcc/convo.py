"""Convolutional codes as modules over GF(q)[D].

A polynomial is a trimmed tuple of field indices, constant term first; the
zero polynomial is the empty tuple and pdeg returns -1 for it (standing in
for degree minus infinity).  PolyMatrix wraps an immutable grid of such
tuples.

The algebra here is the standard module toolkit: predicates for basic and
reduced generator matrices, row reduction to a reduced form, external
degree accounting, duals, membership witnesses for code containment, and
Smith normal form with unimodular transforms u and v (u @ m @ v == s).

Facts are proved witness-first: each predicate looks for a constant
witness with one scalar solve and confirms it with one exact product.  A
constant right inverse R with G @ R == I proves G basic; since R is
constant, one scalar product of the stacked coefficients [G_0; ...; G_mu]
with R confirms it.  For a reduced outer generator, the
predictable-degree property (Forney 1970, "Convolutional codes I:
algebraic structure") bounds the degree of every membership coefficient,
so containment is one scalar system per inner row, confirmed by the
polynomial product X @ outer == inner.  The Smith form is the fallback
for inputs without such a witness, and it still computes the dual.

Duality convention: the dual pairs sequences in the time domain over all
shifts, which for generator matrices G and H reads G(D) @ H(1/D).T == 0.
Equivalently rev(G) @ H.T == 0 where rev reverses coefficients at the
maximum entry degree.  The dual of [1, D] under this pairing is spanned by
[1, -D].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContainmentFailed,
    ContainmentUnverified,
    FieldMismatch,
    PartitionInvalid,
    RankConditionViolated,
    RankDeficient,
)
from .gf import FiniteField
from .matrix import MatrixGF, field_from_order, solve_left, vstack

Poly = tuple[int, ...]

# --- polynomial arithmetic on coefficient tuples ---------------------------


def ptrim(c) -> Poly:
    c = tuple(int(x) for x in c)
    k = len(c)
    while k and c[k - 1] == 0:
        k -= 1
    return c[:k]


def pdeg(a: Poly) -> int:
    """Degree; -1 encodes the zero polynomial."""
    return len(a) - 1


def padd(f: FiniteField, a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = f.add(out[i], c)
    return ptrim(out)


def pneg(f: FiniteField, a: Poly) -> Poly:
    return tuple(f.neg(c) for c in a)


def psub(f: FiniteField, a: Poly, b: Poly) -> Poly:
    return padd(f, a, pneg(f, b))


def pscale(f: FiniteField, a: Poly, c: int) -> Poly:
    if c == 0:
        return ()
    return ptrim(f.mul(np.array(a, dtype=np.int64), c)) if a else ()


def pmul(f: FiniteField, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(ca, cb))
    return ptrim(out)


def pshift(a: Poly, s: int) -> Poly:
    """Multiply by D**s."""
    if not a:
        return ()
    return (0,) * s + a


def pdivmod(f: FiniteField, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = pdeg(b)
    inv_lead = f.inv(b[-1])
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        qc = f.mul(c, inv_lead)
        quo[i - db] = qc
        for j in range(db + 1):
            rem[i - db + j] = f.sub(rem[i - db + j], f.mul(qc, b[j]))
    return ptrim(quo), ptrim(rem)


# --- polynomial matrices ------------------------------------------------------


class PolyMatrix:
    __slots__ = ("field", "e", "_cols")

    def __init__(self, field: FiniteField, entries, cols: int | None = None):
        self.field = field
        self.e = tuple(tuple(ptrim(p) for p in row) for row in entries)
        widths = {len(r) for r in self.e}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        if widths:
            self._cols = widths.pop()
            if cols is not None and cols != self._cols:
                raise ValueError("declared column count does not match rows")
        else:
            self._cols = cols if cols is not None else 0

    @classmethod
    def zeros(cls, field: FiniteField, rows: int, cols: int) -> "PolyMatrix":
        return cls(field, [((),) * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "PolyMatrix":
        return cls(field, [[(1,) if i == j else () for j in range(n)] for i in range(n)])

    @classmethod
    def from_coefficients(cls, field: FiniteField, mats) -> "PolyMatrix":
        """Sum of constant matrices mats[i] * D**i."""
        arrs = [m.a if isinstance(m, MatrixGF) else np.asarray(m) for m in mats]
        rows, cols = arrs[0].shape
        ent = [
            [ptrim([int(a[r, c]) for a in arrs]) for c in range(cols)]
            for r in range(rows)
        ]
        return cls(field, ent, cols=cols)

    @property
    def rows(self) -> int:
        return len(self.e)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> Poly:
        return self.e[i][j]

    def coefficient(self, i: int) -> MatrixGF:
        """The constant matrix multiplying D**i."""
        arr = np.zeros(self.shape, dtype=np.int32)
        for r, row in enumerate(self.e):
            for c, p in enumerate(row):
                if i < len(p):
                    arr[r, c] = p[i]
        return MatrixGF(self.field, arr)

    @property
    def max_degree(self) -> int:
        return max((pdeg(p) for row in self.e for p in row), default=-1)

    @property
    def row_degrees(self) -> tuple[int, ...]:
        return tuple(max((pdeg(p) for p in row), default=-1) for row in self.e)

    def is_zero(self) -> bool:
        return all(not p for row in self.e for p in row)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and self.shape == other.shape
            and self.e == other.e
        )

    def __hash__(self):
        return hash((self.field, self.e))

    def __repr__(self):
        return f"PolyMatrix({self.field!r}, shape={self.shape}, max_degree={self.max_degree})"

    def _check(self, other: "PolyMatrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        f = self.field
        return PolyMatrix(
            f,
            [
                [padd(f, a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.e, other.e, strict=True)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        f = self.field
        return PolyMatrix(
            f,
            [
                [psub(f, a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.e, other.e, strict=True)
            ],
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc: Poly = ()
                for t in range(self.cols):
                    acc = padd(f, acc, pmul(f, self.e[i][t], other.e[t][j]))
                row.append(acc)
            out.append(row)
        return PolyMatrix(f, out, cols=other.cols)

    @property
    def T(self) -> "PolyMatrix":
        if self.rows == 0 or self.cols == 0:
            return PolyMatrix.zeros(self.field, self.cols, self.rows)
        return PolyMatrix(self.field, list(zip(*self.e)))

    def reverse(self, mu: int | None = None) -> "PolyMatrix":
        """D**mu times self evaluated at 1/D; mu defaults to max_degree."""
        if mu is None:
            mu = max(self.max_degree, 0)
        if mu < self.max_degree:
            raise ValueError("mu smaller than the maximum entry degree")
        out = []
        for row in self.e:
            new = []
            for p in row:
                width = mu + 1
                padded = list(p) + [0] * (width - len(p))
                new.append(ptrim(padded[::-1]))
            out.append(new)
        return PolyMatrix(self.field, out)

    def leading_row_matrix(self) -> MatrixGF:
        """Row i holds the coefficients at that row's own degree."""
        arr = np.zeros(self.shape, dtype=np.int32)
        for r, row in enumerate(self.e):
            d = max((pdeg(p) for p in row), default=-1)
            if d < 0:
                continue
            for c, p in enumerate(row):
                if pdeg(p) == d:
                    arr[r, c] = p[-1]
        return MatrixGF(self.field, arr)


# --- Smith normal form -------------------------------------------------------


@dataclass(eq=False)
class SmithForm:
    """u @ m @ v == s with unimodular u, v."""

    s: PolyMatrix
    u: PolyMatrix
    v: PolyMatrix

    @property
    def invariant_factors(self) -> tuple[Poly, ...]:
        out = []
        for t in range(min(self.s.rows, self.s.cols)):
            p = self.s.entry(t, t)
            if p:
                out.append(p)
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_form(m: PolyMatrix) -> SmithForm:
    f = m.field
    rows, cols = m.shape
    a = [[m.entry(i, j) for j in range(cols)] for i in range(rows)]
    u = [[(1,) if i == j else () for j in range(rows)] for i in range(rows)]
    v = [[(1,) if i == j else () for j in range(cols)] for i in range(cols)]

    def row_sub(i, j, q):  # row_i -= q * row_j
        for c in range(cols):
            a[i][c] = psub(f, a[i][c], pmul(f, q, a[j][c]))
        for c in range(rows):
            u[i][c] = psub(f, u[i][c], pmul(f, q, u[j][c]))

    def col_sub(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] = psub(f, a[r][i], pmul(f, q, a[r][j]))
        for r in range(cols):
            v[r][i] = psub(f, v[r][i], pmul(f, q, v[r][j]))

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_scale(i, c):
        a[i] = [pscale(f, p, c) for p in a[i]]
        u[i] = [pscale(f, p, c) for p in u[i]]

    def row_add(i, j):  # row_i += row_j
        for c in range(cols):
            a[i][c] = padd(f, a[i][c], a[j][c])
        for c in range(rows):
            u[i][c] = padd(f, u[i][c], u[j][c])

    for t in range(min(rows, cols)):
        while True:
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] and (best is None or pdeg(a[i][j]) < best):
                        best = pdeg(a[i][j])
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])

            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q, _ = pdivmod(f, a[i][t], a[t][t])
                    row_sub(i, t, q)
                    if a[i][t]:
                        dirty = True  # remainder became a smaller pivot
            for j in range(t + 1, cols):
                if a[t][j]:
                    q, _ = pdivmod(f, a[t][j], a[t][t])
                    col_sub(j, t, q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide everything that is left
            culprit = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] and pdivmod(f, a[i][j], a[t][t])[1]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_add(t, culprit)
        if a[t][t] and a[t][t][-1] != 1:
            row_scale(t, f.inv(a[t][t][-1]))

    return SmithForm(s=PolyMatrix(f, a), u=PolyMatrix(f, u), v=PolyMatrix(f, v))


# --- generator-matrix predicates ------------------------------------------------


def rank_poly(m: PolyMatrix) -> int:
    """Rank over the rational function field."""
    return smith_form(m).rank


def constant_right_inverse(m: PolyMatrix) -> PolyMatrix | None:
    """Constant R with m @ R == I, or None when no constant one exists.

    m @ R == I asks m_0 @ R == I and m_i @ R == 0 for i >= 1, one scalar
    system on the stacked coefficient matrices.  Coefficient i of m @ R is
    m_i @ R, so one scalar product of the stack with R confirms the
    solution before it is returned.
    """
    f = m.field
    k = m.rows
    mu = max(m.max_degree, 0)
    stacked = vstack([m.coefficient(i) for i in range(mu + 1)])
    target = np.zeros((k, (mu + 1) * k), dtype=np.int32)
    target[:, :k] = np.eye(k, dtype=np.int32)
    x = solve_left(stacked.T, MatrixGF(f, target))
    if x is None:
        return None
    if stacked @ x.T != MatrixGF(f, target.T):
        raise AssertionError("right inverse witness failed to reproduce the identity")
    return PolyMatrix.from_coefficients(f, [x.a.T])


def is_basic(m: PolyMatrix) -> bool:
    """Full row rank with all invariant factors equal to 1.

    A constant right inverse proves it; without one the Smith form decides.
    """
    if constant_right_inverse(m) is not None:
        return True
    sf = smith_form(m)
    return sf.rank == m.rows and all(p == (1,) for p in sf.invariant_factors)


def is_reduced(m: PolyMatrix) -> bool:
    """Leading row coefficient matrix has full row rank."""
    return m.leading_row_matrix().rank() == m.rows


def reduce(m: PolyMatrix) -> PolyMatrix:
    """Row-equivalent reduced matrix (greedy leading-row cancellation)."""
    f = m.field
    rows = [list(r) for r in m.e]

    def row_deg(r):
        return max((pdeg(p) for p in rows[r]), default=-1)

    while True:
        lead = np.zeros((len(rows), m.cols), dtype=np.int32)
        for r in range(len(rows)):
            d = row_deg(r)
            if d < 0:
                raise RankDeficient("zero row while reducing; input lost rank")
            for c, p in enumerate(rows[r]):
                if pdeg(p) == d:
                    lead[r, c] = p[-1]
        ker = MatrixGF(f, lead).T.kernel()
        if ker.rows == 0:
            return PolyMatrix(f, rows)
        coefs = ker.row(0)
        support = [r for r in range(len(rows)) if coefs[r]]
        j = max(support, key=lambda r: (row_deg(r), r))
        dj = row_deg(j)
        cj_inv = f.inv(int(coefs[j]))
        for r in support:
            if r == j:
                continue
            factor = f.mul(int(coefs[r]), cj_inv)
            shift = dj - row_deg(r)
            for c in range(m.cols):
                rows[j][c] = padd(
                    f, rows[j][c], pshift(pscale(f, rows[r][c], factor), shift)
                )


@dataclass(frozen=True)
class DegreeInfo:
    row_degrees: tuple[int, ...]
    gamma: int  # external degree: sum of row degrees
    mu: int  # memory: maximum row degree


def degree_accounting(m: PolyMatrix) -> DegreeInfo:
    degs = m.row_degrees
    if any(d < 0 for d in degs):
        raise RankDeficient("zero rows have no degree")
    return DegreeInfo(degs, sum(degs), max(degs, default=0))


# --- duality and containment ---------------------------------------------------


def dual_generator(m: PolyMatrix) -> PolyMatrix:
    """Reduced basic generator of the dual code.

    Pairing convention: rows h of the result satisfy m(D) @ h(1/D).T == 0.
    The kernel columns come out of the Smith V matrix, which makes the
    result saturated, hence basic.
    """
    mu = max(m.max_degree, 0)
    rev = m.reverse(mu)
    sf = smith_form(rev)
    if sf.rank < m.rows:
        raise RankDeficient("generator does not have full row rank")
    n = m.cols
    ker_cols = [[sf.v.entry(i, j) for j in range(sf.rank, n)] for i in range(n)]
    h = PolyMatrix(m.field, ker_cols, cols=n - sf.rank).T
    if h.rows:
        h = reduce(h)
    if not (rev @ h.T).is_zero():
        raise AssertionError("dual residual is nonzero")
    return h


def contains(outer: PolyMatrix, inner: PolyMatrix) -> PolyMatrix:
    """Module membership witness X with X @ outer == inner.

    Raises ContainmentFailed when some inner row is not a polynomial
    combination of outer rows.  A reduced outer generator takes the
    predictable-degree route; any other goes through its Smith form.  The
    witness is checked by one product, and ContainmentUnverified reports
    a witness that does not reproduce the inner rows.
    """
    outer._check(inner)
    if outer.cols != inner.cols:
        raise ValueError("column counts differ")
    if is_reduced(outer):
        x = _membership_reduced(outer, inner)
    else:
        x = _membership_smith(outer, inner)
    if x @ outer != inner:
        raise ContainmentUnverified("witness does not reproduce the inner generator")
    return x


def _membership_reduced(outer: PolyMatrix, inner: PolyMatrix) -> PolyMatrix:
    """X with X @ outer == inner for a reduced outer generator.

    By the predictable-degree property, v = sum_j x_j outer_j has degree
    max_j(deg x_j + nu_j), so deg x_j <= deg v - nu_j.  The coefficients of
    every x_j then solve one scalar system whose rows are the shifts
    D**t outer_j, flattened degree-major.
    """
    f = outer.field
    n = outer.cols
    nu = outer.row_degrees
    mu = max(outer.max_degree, 0)
    flat = np.concatenate([outer.coefficient(d).a for d in range(mu + 1)], axis=1)
    xp = []
    for i, row in enumerate(inner.e):
        dv = max((pdeg(p) for p in row), default=-1)
        shifts = [(j, t) for j in range(outer.rows) for t in range(dv - nu[j] + 1)]
        width = n * (dv + 1)
        a = np.zeros((len(shifts), width), dtype=np.int32)
        for r, (j, t) in enumerate(shifts):
            span = n * (nu[j] + 1)
            a[r, t * n : t * n + span] = flat[j, :span]
        v = np.zeros((1, width), dtype=np.int32)
        for c, p in enumerate(row):
            v[0, c : c + n * len(p) : n] = p
        x = solve_left(MatrixGF(f, a), MatrixGF(f, v))
        if x is None:
            raise ContainmentFailed(f"row {i} has residue outside the module")
        coeffs = [[] for _ in range(outer.rows)]
        for (j, _), c in zip(shifts, x.a[0]):
            coeffs[j].append(int(c))
        xp.append(coeffs)
    return PolyMatrix(f, xp, cols=outer.rows)


def _membership_smith(outer: PolyMatrix, inner: PolyMatrix) -> PolyMatrix:
    f = outer.field
    sf = smith_form(outer)
    w = inner @ sf.v
    r = sf.rank
    xp = [[() for _ in range(outer.rows)] for _ in range(inner.rows)]
    for j in range(outer.cols):
        for i in range(inner.rows):
            entry = w.entry(i, j)
            if j < r:
                q, rem = pdivmod(f, entry, sf.s.entry(j, j))
                if rem:
                    raise ContainmentFailed(
                        f"row {i} is not divisible through invariant factor {j}"
                    )
                xp[i][j] = q
            elif entry:
                raise ContainmentFailed(f"row {i} has residue outside the module")
    return PolyMatrix(f, xp, cols=outer.rows) @ sf.u


def poly_vector_weight(row: tuple[Poly, ...]) -> int:
    """Hamming weight of a polynomial vector across all coefficients."""
    return sum(1 for p in row for c in p if c)


# --- parity-check splitting ---------------------------------------------------


def split_to_generator(blocks, placements=None) -> PolyMatrix:
    """Convolutional generator from a partition of parity-check rows.

    blocks[i] contributes its rows at degree i.  The stacked blocks must
    have full row rank, and no block may have more rows than blocks[0];
    those are the conditions that make the result basic and reduced.

    placements[i], when given, lists the target row of G for each row of
    blocks[i] (defaults to 0, 1, 2, ... which pads at the bottom).
    """
    blocks = list(blocks)
    field = blocks[0].field
    kappa = blocks[0].rows
    n = blocks[0].cols
    if any(b.cols != n for b in blocks):
        raise PartitionInvalid("blocks must share the code length")
    stacked = np.concatenate([b.a for b in blocks], axis=0)
    total = MatrixGF(field, stacked)
    if total.rank() != total.rows:
        raise RankDeficient("stacked split blocks must be linearly independent")
    if placements is None:
        placements = [tuple(range(b.rows)) for b in blocks]
    if len(placements) != len(blocks):
        raise PartitionInvalid("one placement tuple per block")
    coeffs = []
    for i, (b, pl) in enumerate(zip(blocks, placements)):
        if b.rows > kappa:
            raise RankConditionViolated(
                f"block {i} has {b.rows} rows, more than the degree-0 block's {kappa}"
            )
        if len(pl) != b.rows or len(set(pl)) != len(pl) or any(
            not 0 <= t < kappa for t in pl
        ):
            raise PartitionInvalid(f"placement {pl} does not fit {b.rows} rows in {kappa}")
        arr = np.zeros((kappa, n), dtype=np.int32)
        for src, dst in enumerate(pl):
            arr[dst] = b.a[src]
        coeffs.append(arr)
    if list(placements[0]) != list(range(kappa)):
        raise PartitionInvalid("the degree-0 block must fill every row in order")
    return PolyMatrix.from_coefficients(field, coeffs)


def format_poly_matrix(m: PolyMatrix, *, header: bool = True) -> str:
    """Plain-text form: one row per line, entries as (c0,c1,...) tuples.

    The optional q= header line makes the text self-contained for files;
    leave it off when the field is recorded elsewhere.
    """
    lines = [f"q={m.field.q}"] if header else []
    for row in m.e:
        lines.append(" ".join(
            "(" + ",".join(str(c) for c in p) + ")" if p else "(0)" for p in row
        ))
    return "\n".join(lines)


def parse_poly_matrix(text: str):
    """Inverse of format_poly_matrix for headered text."""
    field = None
    rows = []
    width = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("q="):
            if field is not None:
                raise ValueError(f"line {ln}: duplicate q= header")
            field = field_from_order(int(line[2:].strip()))
            continue
        if field is None:
            raise ValueError(f"line {ln}: matrix text must start with a q= header")
        row = []
        for tok in line.split():
            if not (tok.startswith("(") and tok.endswith(")")):
                raise ValueError(f"line {ln}: bad entry {tok!r}, expected (c0,c1,...)")
            coeffs = tuple(int(c) for c in tok[1:-1].split(","))
            if any(not 0 <= c < field.q for c in coeffs):
                raise ValueError(f"line {ln}: coefficient out of range in {tok!r}")
            row.append(coeffs)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"line {ln}: expected {width} entries, got {len(row)}")
        rows.append(row)
    if field is None or not rows:
        raise ValueError("matrix text needs a q= header and at least one row")
    return PolyMatrix(field, rows)
