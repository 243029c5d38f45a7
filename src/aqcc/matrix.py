"""Dense matrices over a small finite field.

Entries are packed field indices (see gf).  MatrixGF instances are
immutable; every operation returns a new matrix.  Sums, products, kernels
and left-division run on the field's array kernels (gf), so results are
exact.  Row reduction has one entry point, _rref, and two kernels behind
it: a matrix of up to _BYTES_RREF_MAX entries over a field with gf's row
tables is eliminated on rows of bytes, any other on the array kernels.  The
public constructor checks and copies its input; results of the methods
here come from the kernels as fresh in-range int32 arrays and are wrapped
by _wrap without either.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldMismatch
from .gf import FiniteField, field_order


def field_from_order(q: int) -> FiniteField:
    """The canonical GF(q) for a prime power q (gf.field_order's gate)."""
    return FiniteField.get(*field_order(q))


def checked_entries(field: FiniteField, values, what: str = "entry") -> np.ndarray:
    """values as an array, or ValueError unless each is an integer in range(q).

    As in FiniteField._index, dtype and range are checked on the values as
    given, before any narrowing to int32; an empty array passes.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"field {what} values are integers, got {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= field.q):
        raise ValueError(f"{what} out of range for the field")
    return arr


class MatrixGF:
    """An immutable matrix of field indices that caches one echelon.

    a is a read-only int32 array.  The reduced row echelon form and its
    pivot columns are computed on first use and kept, and rref, rank,
    kernel and the independent rows all read them.  A matrix of some of
    the rows that span the same space inherits them, since the reduced
    form depends only on the row space.
    """

    __slots__ = ("field", "a", "_echelon")

    def __init__(self, field: FiniteField, rows):
        arr = checked_entries(field, rows)
        if arr.ndim != 2:
            raise ValueError("need a 2d array of field indices")
        arr = arr.astype(np.int32)
        arr.setflags(write=False)
        self.field = field
        self.a = arr
        self._echelon = None

    @classmethod
    def _wrap(cls, field: FiniteField, arr: np.ndarray) -> "MatrixGF":
        """A kernel result: a 2-d in-range int32 array nobody else writes,
        taken as it is and made read-only."""
        out = cls.__new__(cls)
        arr.setflags(write=False)
        out.field = field
        out.a = arr
        out._echelon = None
        return out

    @classmethod
    def zeros(cls, field: FiniteField, rows: int, cols: int) -> "MatrixGF":
        return cls(field, np.zeros((rows, cols), dtype=np.int32))

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "MatrixGF":
        return cls(field, np.eye(n, dtype=np.int32))

    # --- shape and access ---------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __getitem__(self, key):
        return self.a[key]

    def row(self, i: int) -> np.ndarray:
        return self.a[i]

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.field, self.a.tobytes(), self.a.shape))

    def __repr__(self):
        return f"MatrixGF({self.field!r}, {self.a.tolist()!r})"

    def is_zero(self) -> bool:
        return not np.any(self.a)

    # --- algebra ---------------------------------------------------------

    def _check_field(self, other: "MatrixGF"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other: "MatrixGF") -> "MatrixGF":
        self._check_field(other)
        return MatrixGF._wrap(self.field, self.field._vadd(self.a, other.a))

    def __sub__(self, other: "MatrixGF") -> "MatrixGF":
        self._check_field(other)
        return MatrixGF._wrap(self.field, self.field._vsub(self.a, other.a))

    def __neg__(self) -> "MatrixGF":
        return MatrixGF._wrap(self.field, self.field._vneg(self.a))

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return MatrixGF._wrap(self.field, self.field._vmatmul(self.a, other.a))

    @property
    def T(self) -> "MatrixGF":
        return MatrixGF._wrap(self.field, self.a.T)

    # --- reduction -------------------------------------------------------

    def _reduced(self) -> tuple["MatrixGF", tuple[int, ...]]:
        """The cached echelon, eliminated on first use.  The methods here
        read it directly, so the calls to rref, rank and kernel that the
        perfbench tracer counts are the callers' own."""
        if self._echelon is None:
            red, piv = _rref(self.field, self.a)
            self._echelon = MatrixGF._wrap(self.field, red), piv
        return self._echelon

    def rref(self) -> tuple["MatrixGF", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        return self._reduced()

    def rank(self) -> int:
        return len(self._reduced()[1])

    def kernel(self) -> "MatrixGF":
        """Rows span the right null space {x : self @ x = 0}.

        Row r ends in a 1 at the r-th free column and is 0 at the other
        free columns: the reduced echelon basis read from the last column.
        """
        f = self.field
        red, piv = self._reduced()
        piv = list(piv)
        is_free = np.ones(self.cols, dtype=bool)
        is_free[piv] = False
        free = is_free.nonzero()[0]
        out = np.zeros((len(free), self.cols), dtype=np.int32)
        out[np.arange(len(free)), free] = 1
        out[:, piv] = f._vneg(red.a[: len(piv), free].T)
        return MatrixGF._wrap(f, out)

    def independent_row_indices(self) -> tuple[int, ...]:
        """First maximal set of linearly independent rows, in order.

        When the nonzero rows are as many as the rank they are that set;
        only otherwise is the transpose eliminated for the pivot rows.
        """
        nonzero = self.a.any(axis=1).nonzero()[0]
        if len(nonzero) == len(self._reduced()[1]):
            return tuple(nonzero.tolist())
        return self.T.rref()[1]

    def remove_dependent_rows(self) -> "MatrixGF":
        """The independent rows in order.  They span the row space, so the
        result inherits this echelon with its zero rows cut off."""
        keep = self.independent_row_indices()
        if len(keep) == self.rows:
            return self
        red, piv = self._reduced()
        out = MatrixGF._wrap(self.field, self.a[list(keep)])
        out._echelon = MatrixGF._wrap(self.field, red.a[: len(piv)]), piv
        return out


# Entries up to which _rref eliminates on byte rows.  Measured on the
# eliminations of the three benchmark workloads (sums of best-of-7 call
# times, 2-vCPU Intel Xeon): any cut from 1280 to 2048 came within 1 ms of
# the best.  Dense random square matrices break even lower (about 600
# entries over GF(16)), wide ones higher (3000 at two columns a row).
_BYTES_RREF_MAX = 1536


def _rref(field: FiniteField, a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan elimination: the reduced echelon as a fresh int32 array
    and the pivot columns.

    Both kernels do the same row operations in the same order.  Up to
    _BYTES_RREF_MAX entries over a field with byte row tables the byte
    kernel runs: its row operation is two C calls on the whole row, where
    each array pivot makes about ten numpy calls.  Other matrices and
    fields take the array kernel.
    """
    if a.size <= _BYTES_RREF_MAX and field._row_tables is not None:
        return _rref_bytes(field, a)
    return _rref_arrays(field, a)


def _rref_arrays(field: FiniteField, a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Rows r and below are zero left of column c, so the pivot row is too,
    and each step touches only columns >= c of the rows with a nonzero
    entry in column c."""
    m = np.array(a, dtype=np.int32, order="C")  # .T results arrive as views
    rows, cols = m.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[:, c].nonzero()[0]
        i = nz.searchsorted(r)
        if i == len(nz):
            continue
        p0 = int(nz[i])
        if p0 != r:  # row r is zero in column c, so the other hits stay put
            m[[r, p0]] = m[[p0, r]]
        lead = m[r, c]
        if lead != 1:
            m[r, c:] = field._vmul(int(field._vinv(lead)), m[r, c:])
        if len(nz) > 1:
            hit = nz[nz != p0]
            block = m[hit, c:]
            m[hit, c:] = field._vsub(block, field._vmul(block[:, :1], m[r, c:]))
        piv.append(c)
        r += 1
    return m, tuple(piv)


def _rref_bytes(field: FiniteField, a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The steps of _rref_arrays on rows of bytes, by gf's row tables.  The
    pivot row is zero left of column c, so each operation runs on whole
    rows: one translate gives the multiple of the pivot row, added as a big
    int by XOR (p = 2) or by a carry-free sum and a translate mod p."""
    norm, negmul, mod_p = field._row_tables
    rows, cols = a.shape
    flat = a.astype(np.uint8).tobytes()
    m = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for p0 in range(r, rows):
            if m[p0][c]:
                break
        else:
            continue
        prow = m[p0]
        if prow[c] != 1:
            prow = prow.translate(norm[prow[c]])
        m[p0], m[r] = m[r], prow
        for i, row in enumerate(m):
            if (f := row[c]) and i != r:
                t = int.from_bytes(prow.translate(negmul[f]), "little")
                if mod_p is None:
                    m[i] = (int.from_bytes(row, "little") ^ t).to_bytes(cols, "little")
                else:
                    m[i] = (int.from_bytes(row, "little") + t).to_bytes(cols, "little").translate(mod_p)
        piv.append(c)
        r += 1
    return np.frombuffer(b"".join(m), np.uint8).reshape(rows, cols).astype(np.int32), tuple(piv)


def vstack(mats: list[MatrixGF]) -> MatrixGF:
    field = mats[0].field
    return MatrixGF._wrap(field, np.concatenate([m.a for m in mats], axis=0))


def solve_left(a: MatrixGF, b: MatrixGF) -> MatrixGF | None:
    """X with X @ a == b, or None when b's rows leave a's row space.

    Free variables are set to zero, so the witness is deterministic.
    """
    a._check_field(b)
    if a.cols != b.cols:
        raise ValueError("column counts differ")
    f = a.field
    aug = np.concatenate([a.a.T, b.a.T], axis=1)
    red, piv = _rref(f, aug)
    x = np.zeros((a.rows, b.rows), dtype=np.int32)
    for i, pc in enumerate(piv):
        if pc >= a.rows:
            return None
        x[pc] = red[i, a.rows:]
    return MatrixGF._wrap(f, x.T)
