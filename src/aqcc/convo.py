"""Convolutional codes as modules over GF(q)[D].

PolyMatrix stores one read-only coefficient array c of shape (L, rows,
cols), with c[d] the constant matrix multiplying D**d and trailing zero
degrees trimmed (L == 1 for the zero matrix).  Sums, products, transposes,
reversal and leading-row matrices are array operations on the field's
array kernels; a product is one scalar product with a block-Toeplitz
matrix.  The text format reads c directly.

Single polynomials, which the Smith form uses, are
trimmed tuples of field indices, constant term first; the zero polynomial
is the empty tuple and pdeg returns -1 for it (standing in for degree
minus infinity).  PolyMatrix.e views the entries as such tuples.

The algebra here is the standard module toolkit: predicates for basic and
reduced generator matrices, row reduction to a reduced form, external
degree accounting, duals, membership witnesses for code containment, and
Smith normal form with unimodular transforms u and v (u @ m @ v == s).

Each fact has one route, and none takes a Smith form.  Every PolyMatrix
eliminates its leading-row matrix L once, on first use, into its pivot
columns P and E = L[:, P]**-1 (leading_echelon); that elimination is the
reducedness test, and reduce returns a reduced matrix as it is.  reduce
is also the rank test: on a matrix that is not reduced its row steps
raise RankDeficient on a zero row.  A constant right inverse R with
G @ R == I proves G basic, confirmed by one scalar product of the stacked
coefficients [G_0; ...; G_mu] with R; without one, G is basic exactly
when reduce(G) and its minimal dual have the same external degree
(Forney 1975).  The gap is kept on the matrix, and a minimal dual carries
gap 0 from its construction.  For a reduced outer generator the
predictable-degree property (Forney 1970, "Convolutional codes I:
algebraic structure") makes containment a division, top degree first, by
L through E, for all inner rows at once; other outer generators are
reduced first, with their unimodular transform.  One product
X @ outer == inner confirms the witness.  The Smith form is only the
reference the tests compare with.

The dual is a minimal basis of a polynomial kernel, built from scalar
kernels of block-Toeplitz matrices, in the Popov form fixed by the code.

Duality convention: the dual pairs sequences in the time domain over all
shifts, which for generator matrices G and H reads G(D) @ H(1/D).T == 0.
Equivalently rev(G) @ H.T == 0 where rev reverses coefficients at the
maximum entry degree.  The dual of [1, D] under this pairing is spanned by
[1, -D], whose Popov form is [-1, D].
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
from .matrix import MatrixGF, field_from_order, solve_left

Poly = tuple[int, ...]

# --- single polynomials as coefficient tuples -------------------------------


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


def psub(f: FiniteField, a: Poly, b: Poly) -> Poly:
    return padd(f, a, tuple(f.neg(c) for c in b))


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
    """Matrix over GF(q)[D], stored as one coefficient array.

    c is a read-only int32 array of shape (L, rows, cols) whose slice c[d]
    is the constant matrix multiplying D**d.  Trailing zero degrees are
    trimmed, so L - 1 == max_degree, and the zero matrix keeps L == 1.
    Arithmetic runs on the field's array kernels: a sum adds coefficient
    arrays, a product is one scalar product with a block-Toeplitz matrix.
    e is a grid of coefficient tuples, stack the coefficient matrices as
    one MatrixGF (whose echelon it then keeps) and leading_echelon the
    inverted pivot block of the leading-row matrix, each built on first use.
    """

    __slots__ = ("field", "c", "_e", "_stack", "_lead", "_gap")

    def __init__(self, field: FiniteField, entries, cols: int | None = None):
        """From a grid of coefficient tuples, constant term first."""
        grid = [list(row) for row in entries]
        width = len(grid[0]) if grid else cols or 0
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError("declared column count does not match rows")
        depth = max((len(p) for row in grid for p in row), default=0)
        c = np.zeros((depth, len(grid), width), dtype=np.int32)
        for i, row in enumerate(grid):
            for j, p in enumerate(row):
                c[: len(p), i, j] = p
        self._bind(field, c)

    def _bind(self, field: FiniteField, c):
        c = np.asarray(c)
        if c.ndim != 3:
            raise ValueError("need a (degree, rows, cols) coefficient array")
        if c.size and (c.min() < 0 or c.max() >= field.q):
            raise ValueError("coefficient out of range for the field")
        live = np.flatnonzero(c.any(axis=(1, 2)))
        depth = int(live[-1]) + 1 if live.size else 1
        trimmed = np.zeros((depth, *c.shape[1:]), dtype=np.int32)
        trimmed[: len(c)] = c[:depth]
        self._set(field, trimmed)

    def _set(self, field: FiniteField, c: np.ndarray):
        c.setflags(write=False)
        self.field = field
        self.c = c
        self._e = self._stack = self._lead = self._gap = None

    @classmethod
    def from_coefficients(cls, field: FiniteField, mats) -> "PolyMatrix":
        """Sum of constant matrices mats[d] * D**d.

        mats is a sequence of MatrixGF or 2-d arrays, or one 3-d array.
        """
        if not (isinstance(mats, np.ndarray) and mats.ndim == 3):
            mats = np.stack([m.a if isinstance(m, MatrixGF) else np.asarray(m) for m in mats])
        out = cls.__new__(cls)
        out._bind(field, mats)
        return out

    @classmethod
    def _wrap(cls, field: FiniteField, c: np.ndarray) -> "PolyMatrix":
        """A kernel result: a 3-d in-range int32 array nobody else writes,
        trimmed by slicing and taken without a range check or a copy."""
        live = np.flatnonzero(c.any(axis=(1, 2)))
        out = cls.__new__(cls)
        if not live.size:
            out._set(field, np.zeros((1, *c.shape[1:]), dtype=np.int32))
        else:
            out._set(field, c[: int(live[-1]) + 1])
        return out

    @classmethod
    def zeros(cls, field: FiniteField, rows: int, cols: int) -> "PolyMatrix":
        return cls.from_coefficients(field, np.zeros((1, rows, cols), dtype=np.int32))

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "PolyMatrix":
        return cls.from_coefficients(field, [np.eye(n, dtype=np.int32)])

    @property
    def rows(self) -> int:
        return self.c.shape[1]

    @property
    def cols(self) -> int:
        return self.c.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self.c.shape[1:]

    @property
    def e(self) -> tuple[tuple[Poly, ...], ...]:
        """The entries as trimmed coefficient tuples."""
        if self._e is None:
            self._e = tuple(
                tuple(ptrim(p) for p in row) for row in self.c.transpose(1, 2, 0).tolist()
            )
        return self._e

    def entry(self, i: int, j: int) -> Poly:
        return self.e[i][j]

    @property
    def stack(self) -> MatrixGF:
        """The coefficient matrices stacked top to bottom, [c[0]; c[1]; ...]."""
        if self._stack is None:
            self._stack = MatrixGF._wrap(self.field, self.c.reshape(-1, self.cols))
        return self._stack

    def coefficient(self, i: int) -> MatrixGF:
        """The constant matrix multiplying D**i."""
        return MatrixGF(self.field, self.coefficients(i + 1)[i])

    def coefficients(self, depth: int) -> np.ndarray:
        """The first depth degrees of c, zero-padded to shape (depth, rows, cols)."""
        if depth == len(self.c):
            return self.c
        out = np.zeros((depth, *self.shape), dtype=np.int32)
        out[: len(self.c)] = self.c[:depth]
        return out

    @property
    def max_degree(self) -> int:
        return len(self.c) - 1 if len(self.c) > 1 or self.c.any() else -1

    @property
    def row_degrees(self) -> tuple[int, ...]:
        return tuple(_row_degrees(self.c).tolist())

    def is_zero(self) -> bool:
        return not self.c.any()

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and np.array_equal(self.c, other.c)
        )

    def __hash__(self):
        return hash((self.field, self.c.shape, self.c.tobytes()))

    def __repr__(self):
        return f"PolyMatrix({self.field!r}, shape={self.shape}, max_degree={self.max_degree})"

    def _check(self, other: "PolyMatrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def _pair(self, other: "PolyMatrix") -> tuple[np.ndarray, np.ndarray]:
        self._check(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        depth = max(len(self.c), len(other.c))
        return self.coefficients(depth), other.coefficients(depth)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        a, b = self._pair(other)
        return PolyMatrix._wrap(self.field, self.field._vadd(a, b))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        a, b = self._pair(other)
        return PolyMatrix._wrap(self.field, self.field._vsub(a, b))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """[A_0 | A_1 | ...] times the block-Toeplitz stack whose block
        (a, a + b) is B_b; block column d of the product is C_d."""
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        depth = len(self.c) + len(other.c) - 1
        left = self.c.transpose(1, 0, 2).reshape(self.rows, len(self.c) * self.cols)
        band = block_toeplitz(other.c, len(self.c), depth)
        prod = f._vmatmul(left, band)
        return PolyMatrix._wrap(f, prod.reshape(self.rows, depth, other.cols).transpose(1, 0, 2))

    @property
    def T(self) -> "PolyMatrix":
        return PolyMatrix._wrap(self.field, self.c.transpose(0, 2, 1))

    def reverse(self, mu: int | None = None) -> "PolyMatrix":
        """D**mu times self evaluated at 1/D; mu defaults to max_degree."""
        if mu is None:
            mu = max(self.max_degree, 0)
        if mu < self.max_degree:
            raise ValueError("mu smaller than the maximum entry degree")
        return PolyMatrix._wrap(self.field, self.coefficients(mu + 1)[::-1])

    def leading_row_matrix(self) -> MatrixGF:
        """Row i holds the coefficients at that row's own degree."""
        degs = np.maximum(_row_degrees(self.c), 0)
        return MatrixGF._wrap(self.field, self.c[degs, np.arange(self.rows)])

    @property
    def leading_echelon(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(P, E) with E = L[:, P]**-1 for the leading-row matrix L and its
        pivot columns P, or None when L lacks full row rank; computed on
        first use."""
        if self._lead is None:
            self._lead = _leading_echelon(self)
        return self._lead or None


def _leading_echelon(m: PolyMatrix) -> tuple:
    """One elimination of [L | I]: when L has full row rank its pivots all
    fall left of I, and the right half of the reduced form is the T with
    T @ L[:, P] == I.  The empty tuple stands for a rank-deficient L."""
    k, n = m.shape
    aug = np.concatenate([m.leading_row_matrix().a, np.eye(k, dtype=np.int32)], axis=1)
    red, piv = MatrixGF._wrap(m.field, aug).rref()
    if any(p >= n for p in piv):
        return ()
    return np.array(piv, dtype=np.intp), red.a[:, n:]


def block_toeplitz(c: np.ndarray, blocks: int, width: int) -> np.ndarray:
    """Scalar matrix whose block (t, t + d) is c[d], for block rows t < blocks.

    Blocks of c are cut off at block column width.
    """
    depth, r, n = c.shape
    band = c.transpose(1, 0, 2).reshape(r, depth * n)
    out = np.zeros((blocks * r, width * n), dtype=np.int32)
    for t in range(blocks):
        span = min(depth, width - t) * n
        out[t * r : (t + 1) * r, t * n : t * n + span] = band[:, :span]
    return out


def _row_degrees(c: np.ndarray) -> np.ndarray:
    """Degree of each row of a coefficient array; -1 for a zero row."""
    live = c.any(axis=2)[::-1]
    return np.where(live.any(axis=0), len(c) - 1 - live.argmax(axis=0), -1)


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
    stacked = m.stack
    target = np.zeros((k, len(m.c) * k), dtype=np.int32)
    target[:, :k] = np.eye(k, dtype=np.int32)
    eye = MatrixGF._wrap(f, target)
    x = solve_left(stacked.T, eye)
    if x is None:
        return None
    if stacked @ x.T != eye.T:
        raise AssertionError("right inverse witness failed to reproduce the identity")
    return PolyMatrix._wrap(f, x.a.T[None])


def is_basic(m: PolyMatrix) -> bool:
    """Full row rank with all invariant factors equal to 1: a zero degree gap."""
    try:
        return degree_gap(m) == 0
    except RankDeficient:
        return False


def degree_gap(m: PolyMatrix) -> int:
    """Degree of the gcd of the k x k minors of m; 0 exactly when m is basic.

    A constant right inverse proves the gap 0.  Without one, reduce(m) has
    the largest degree of the minors as its external degree, and its
    minimal dual has the degree of a basic generator of the same code
    (Forney 1975), so their difference is the degree of the gcd; building
    the dual records it.  Raises RankDeficient when the rows of m are
    dependent.  The gap is kept on m, so a matrix whose dual was built
    already, and every minimal basis dual_generator returns, reads it.
    """
    if m._gap is None:
        if constant_right_inverse(m) is not None:
            m._gap = 0
        else:
            dual_generator(m)  # records the gap on m
    return m._gap


def is_reduced(m: PolyMatrix) -> bool:
    """Leading row coefficient matrix has full row rank."""
    return m.leading_echelon is not None


def reduce(m: PolyMatrix) -> PolyMatrix:
    """Row-equivalent reduced matrix (greedy leading-row cancellation); the
    rank test, raising RankDeficient on a zero row.  A reduced m is
    returned as it is."""
    return _reduce(m)[0]


def _reduce(m: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """reduce(m) and the unimodular U with U @ m == reduce(m), built by the
    same row steps on an identity array that grows with the shifts.  A
    reduced m, which its leading echelon shows, is its own reduction."""
    f = m.field
    if m.leading_echelon is not None:
        return m, PolyMatrix.identity(f, m.rows)
    c = np.array(m.c)
    u = np.eye(m.rows, dtype=np.int32)[None]
    rows = np.arange(m.rows)
    while True:
        degs = _row_degrees(c)
        if np.any(degs < 0):
            raise RankDeficient("zero row while reducing; input lost rank")
        ker = MatrixGF._wrap(f, c[degs, rows]).T.kernel()
        if ker.rows == 0:
            return PolyMatrix._wrap(f, c), PolyMatrix._wrap(f, u)
        coefs = ker.row(0)
        support = np.flatnonzero(coefs).tolist()
        j = max(support, key=lambda r: (degs[r], r))
        cj_inv = f.inv(int(coefs[j]))
        for r in support:
            if r == j:
                continue
            factor = f.mul(int(coefs[r]), cj_inv)
            shift = degs[j] - degs[r]
            # row_j += factor * D**shift * row_r, in c and in u
            c[shift:, j] = f._vadd(c[shift:, j], f._vmul(factor, c[: len(c) - shift, r]))
            u = np.concatenate([u, np.zeros((shift, *u.shape[1:]), dtype=np.int32)])
            u[shift:, j] = f._vadd(u[shift:, j], f._vmul(factor, u[: len(u) - shift, r]))


@dataclass(frozen=True)
class DegreeInfo:
    row_degrees: tuple[int, ...]
    gamma: int  # external degree: sum of row degrees


def degree_accounting(m: PolyMatrix) -> DegreeInfo:
    degs = m.row_degrees
    if any(d < 0 for d in degs):
        raise RankDeficient("zero rows have no degree")
    return DegreeInfo(degs, sum(degs))


# --- duality and containment ---------------------------------------------------


def dual_generator(m: PolyMatrix) -> PolyMatrix:
    """Generator of the dual code in Popov form.

    Rows h satisfy m(D) @ h(1/D).T == 0: they span the polynomial kernel of
    rev(m).  Its vectors of degree <= d are the left kernel of a
    block-Toeplitz matrix (Forney 1975, "Minimal bases of rational vector
    spaces"), taken for d = 0, 1, ... up to gamma of the reduced m, which
    bounds the dual row degrees.  With the coefficient of D**t e_j at
    position (t, j), kernel() returns the echelon basis whose vectors end
    in a 1 at their own leading term and vanish at the others'.  Those
    whose leading term is not D times another are the Popov basis (Kailath
    1980, "Linear Systems", 6.7): minimal, hence basic and reduced, with
    monic pivots and normalized pivot columns, the same for every
    generator of the code.  The external degree of the reduced m less that
    of the dual is the degree gap of m, recorded on m when it has none yet.
    """
    f = m.field
    n = m.cols
    g = reduce(m)  # raises RankDeficient on a rank-deficient m
    extra = n - g.rows
    band = g.reverse().T.c
    for d in range(sum(g.row_degrees) + 1):
        ker = MatrixGF._wrap(f, block_toeplitz(band, d + 1, len(band) + d)).T.kernel().a
        lead = ker.shape[1] - 1 - np.argmax(ker[:, ::-1] != 0, axis=1)
        popov = ker[~np.isin(lead - n, lead)]
        if len(popov) == extra:
            break
    else:
        raise AssertionError("dual basis incomplete at the degree bound")
    h = PolyMatrix._wrap(f, popov.reshape(extra, d + 1, n).transpose(1, 0, 2))
    if not (m.reverse() @ h.T).is_zero():
        raise AssertionError("dual residual is nonzero")
    h._gap = 0  # a minimal basis is basic
    if m._gap is None:
        m._gap = sum(g.row_degrees) - sum(h.row_degrees)
    return h


def contains(outer: PolyMatrix, inner: PolyMatrix) -> PolyMatrix:
    """Module membership witness X with X @ outer == inner.

    Raises ContainmentFailed when some inner row is not a polynomial
    combination of outer rows, and RankDeficient when the outer rows are
    dependent.  With U @ outer == reduce(outer), the predictable-degree
    division finds X_r @ reduce(outer) == inner and X = X_r @ U (a reduced
    outer is its own reduction, so no product).  ContainmentUnverified
    reports a witness that does not reproduce the inner rows in the one
    check.
    """
    outer._check(inner)
    if outer.cols != inner.cols:
        raise ValueError("column counts differ")
    g, u = _reduce(outer)
    x = _membership_reduced(g, inner)
    if g is not outer:
        x = x @ u
    if x @ outer != inner:
        raise ContainmentUnverified("witness does not reproduce the inner generator")
    return x


def _membership_reduced(outer: PolyMatrix, inner: PolyMatrix) -> PolyMatrix:
    """X with X @ outer == inner for a reduced outer generator.

    By the predictable-degree property, v = sum_j x_j outer_j has degree
    max_j(deg x_j + nu_j), so the coefficient of D**delta in any residual
    of degree <= delta is y @ L with y_j the coefficient of D**(delta -
    nu_j) in x_j and L the leading-row matrix.  Division therefore runs
    from the top inner degree down, for all inner rows at once: y is read
    off the pivot columns through the leading echelon, and a row fails when
    y needs a negative power of D or y @ L leaves part of the coefficient.
    """
    f = outer.field
    k, n = outer.shape
    piv, inv = outer.leading_echelon
    nu = _row_degrees(outer.c)
    top = max(inner.max_degree, 0)
    res = np.array(inner.coefficients(top + 1))
    # tail[s, j] is the coefficient of outer_j s degrees below its leading one
    s_idx = np.arange(len(outer.c))[:, None]
    tail = np.where((s_idx <= nu)[:, :, None], outer.c[np.maximum(nu - s_idx, 0), np.arange(k)], 0)
    x = np.zeros((top + 1, inner.rows, k), dtype=np.int32)
    for delta in range(top, -1, -1):
        y = f._vmatmul(res[delta][:, piv], inv)
        bad = y[:, nu > delta].any(axis=1)
        if bad.any():
            raise ContainmentFailed(f"row {int(bad.argmax())} has residue outside the module")
        span = min(delta, len(tail) - 1) + 1
        sub = f._vmatmul(y, tail[:span].transpose(1, 0, 2).reshape(k, span * n))
        sub = sub.reshape(inner.rows, span, n).transpose(1, 0, 2)[::-1]
        res[delta + 1 - span : delta + 1] = f._vsub(res[delta + 1 - span : delta + 1], sub)
        left = res[delta].any(axis=1)
        if left.any():
            raise ContainmentFailed(f"row {int(left.argmax())} has residue outside the module")
        live = np.flatnonzero(nu <= delta)
        x[delta - nu[live], :, live] = y[:, live].T
    return PolyMatrix._wrap(f, x)


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
    n = blocks[0].cols
    if any(b.cols != n for b in blocks):
        raise PartitionInvalid("blocks must share the code length")
    total = sum(b.rows for b in blocks)

    def require_independent(stack: MatrixGF):
        if stack.rank() != total:
            raise RankDeficient("stacked split blocks must be linearly independent")

    try:
        g = PolyMatrix._wrap(field, _placed_blocks(blocks, placements))
    except (PartitionInvalid, RankConditionViolated):
        # dependent blocks are reported before any layout error
        require_independent(MatrixGF._wrap(field, np.concatenate([b.a for b in blocks])))
        raise
    # G's stack holds the block rows and zero padding, so it has rank total
    # exactly when the blocks are independent; its echelon stays on G
    require_independent(g.stack)
    return g


def _placed_blocks(blocks, placements) -> np.ndarray:
    """Coefficient array with blocks[i]'s rows at degree i, in the rows
    placements[i] names."""
    kappa, n = blocks[0].shape
    if placements is None:
        placements = [tuple(range(b.rows)) for b in blocks]
    if len(placements) != len(blocks):
        raise PartitionInvalid("one placement tuple per block")
    coeffs = np.zeros((len(blocks), kappa, n), dtype=np.int32)
    for i, (b, pl) in enumerate(zip(blocks, placements)):
        if b.rows > kappa:
            raise RankConditionViolated(
                f"block {i} has {b.rows} rows, more than the degree-0 block's {kappa}"
            )
        if len(pl) != b.rows or len(set(pl)) != len(pl) or any(
            not 0 <= t < kappa for t in pl
        ):
            raise PartitionInvalid(f"placement {pl} does not fit {b.rows} rows in {kappa}")
        coeffs[i, list(pl)] = b.a
    if list(placements[0]) != list(range(kappa)):
        raise PartitionInvalid("the degree-0 block must fill every row in order")
    return coeffs


def format_poly_matrix(m: PolyMatrix, *, header: bool = True) -> str:
    """Plain-text form: one row per line, entries as (c0,c1,...) tuples.

    The optional q= header line makes the text self-contained for files;
    leave it off when the field is recorded elsewhere.
    """
    lines = [f"q={m.field.q}"] if header else []
    # each entry's length: one past its last nonzero degree, 0 when zero
    live = m.c[::-1] != 0
    ends = np.where(live.any(axis=0), len(m.c) - live.argmax(axis=0), 0).tolist()
    for row, row_ends in zip(m.c.transpose(1, 2, 0).tolist(), ends):
        lines.append(" ".join(
            "(" + ",".join(map(str, p[:end])) + ")" if end else "(0)"
            for p, end in zip(row, row_ends)
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
