"""Linear block codes with exact or honestly bounded minimum distances.

Three constructors matter here: cyclic codes cut out by roots of unity
(bch_parity, rs_parity) and generalized Reed-Solomon codes (grs_build).
Each records per-exponent parity row groups because the convolutional
splits downstream pick individual rows by exponent; a cyclic code keeps
one group per cyclotomic coset, under the coset's smallest exponent.

Minimum distances come from one of three certified routes:
  * direct codeword enumeration when q**k fits the budget,
  * the dual distribution plus an exact integer MacWilliams transform
    when q**(n-k) fits,
  * otherwise a short codeword witness for the upper bound, over the
    trivial lower bound 1; a caller that carries a bound meets it in.
The result always states which route produced it.

Enumeration splits the rows into low rows, whose q**a codewords are
tabulated once, stored one row per code column, and high rows.  For each
high codeword h the weight of every low + h is the number of columns where
low differs from -h: mismatches compares the table with a batch of such
rows one column at a time, and only the witness is built.

The low table is closed under scaling, so low + lam * h = lam * (low / lam
+ h) has the weights of low + h for every scalar lam != 0.  The high block
h = 0 is counted once, and of each other class GF(q)* * h only the member
whose top nonzero message digit is 1 is visited, its counts taken q - 1
times: (q**(k - a) - 1)/(q - 1) blocks instead of q**(k - a) - 1.  The
member lam * h has top digit lam > 1, so it comes after h in message
order; the first codeword of least weight therefore lies in block 0 or in
a visited block, and the visited block's own counts locate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    AqccError,
    DuplicateEvaluationPoint,
    InvalidDesignedDistance,
    RootOfUnityUnavailable,
    ZeroMultiplier,
)
from .gf import FiniteField, SubfieldBasis, multiplicative_order
from .matrix import MatrixGF

# The codeword enumeration cap of min_distance, the certifier and the CLI;
# it decides which block-distance route each desk certificate records.
DESK_ENUM_BUDGET = 10 ** 6
_CHUNK = 1 << 13
# the most table entries one mismatches call compares against a batch
_SCORE_CHUNK = 1 << 20


@dataclass(frozen=True)
class DistanceBound:
    """Certified bracket on a minimum or free distance.

    method names the route that produced the bracket: "enumeration",
    "macwilliams" or "bounded" for a block code, "dijkstra", "block" or
    "bounded" for a convolutional code, "chain" for min_sum's bracket on
    a dual from the codes its generator's slices check, and "designed"
    when no search ran.
    floor names where lower came from: the route itself when its search
    proved an exact value, "designed" for a bound the constructor carries,
    "d_dual" or "chain" for the certifier's bounds on the two side codes,
    and "none" for 1.  upper is None when nothing was searched; witness,
    when present, is a codeword of weight upper on every route: one
    read-only int32 (L, n) array, row d for D**d, its last row nonzero and
    L == 1 for a block code; == and hash leave it out.  states counts the
    trellis states an exact search settled.  An empty bracket, lower < 1
    or lower > upper, is refused.  aqcc distance prints its one text form.
    """

    lower: int
    upper: int | None
    method: str
    floor: str
    witness: np.ndarray | None = dataclass_field(default=None, compare=False)
    states: int = 0

    def __post_init__(self):
        if self.lower < 1:
            raise AqccError(f"lower bound {self.lower} is below 1")
        if self.upper is not None and self.lower > self.upper:
            what = "the weight of a codeword" if self.witness is not None else "an upper bound"
            raise AqccError(f"lower bound {self.lower} exceeds {self.upper}, {what}")
        if self.witness is not None:
            self.witness.setflags(write=False)
            w = np.count_nonzero(self.witness)
            if w != self.upper:
                raise AqccError(f"witness of weight {w} does not prove the upper bound {self.upper}")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def meet(self, other: "DistanceBound") -> "DistanceBound":
        """What self and other, brackets of one distance, prove together:
        the larger lower bound with its floor, the smaller upper bound with
        its witness, self's method and states.  On a tie self's floor and
        witness stay, except that a floor "none" yields to the other's."""
        lo = other if other.lower > self.lower or (other.lower == self.lower and self.floor == "none") else self
        up = other if other.upper is not None and (self.upper is None or other.upper < self.upper) else self
        return DistanceBound(lo.lower, up.upper, self.method, lo.floor, up.witness, self.states)

    @staticmethod
    def min_sum(a, b, c, floor: str) -> "DistanceBound":
        """[min(a.lower + b.lower, c.lower), c.upper] with c's witness, named
        floor, its route "designed" if c has no upper bound: the chain on the
        free distance of a split generator's dual from the codes its first
        slice, top slice and stack check, whose words lie in that dual."""
        return DistanceBound(min(a.lower + b.lower, c.lower), c.upper,
                             floor if c.upper is not None else "designed", floor, c.witness)


class BlockCode:
    """An [n, k] linear code over GF(q), presented by a parity-check matrix.

    The parity matrix is normalized to full row rank on construction.  A
    code and its dual() hold the same two matrices, each one's generator
    the other's parity, and share the one weight enumeration of each that
    min_distance runs: its counts, least weight and a copy of its first
    codeword of that weight, never the codeword table.
    """

    def __init__(self, field: FiniteField, parity: MatrixGF):
        self._set(field, parity.remove_dependent_rows(), None)

    @classmethod
    def _independent(cls, field: FiniteField, parity: MatrixGF,
                     generator: MatrixGF | None = None, **kw) -> "BlockCode":
        """The code of parity rows that are independent by construction,
        without the elimination that would drop none of them; generator,
        when given, has independent rows spanning the kernel of parity."""
        code = cls.__new__(cls)
        code._set(field, parity, generator, **kw)
        return code

    def _set(self, field, parity, generator, weights=None, side=0):
        self.field = field
        self.parity = parity
        self.n = parity.cols
        self.k = self.n - parity.rows
        self._generator = generator
        # the enumerations of this code's generator and parity, slots side
        # and 1 - side of a list its duals share
        self._weights = [None, None] if weights is None else weights
        self._side = side

    @property
    def generator(self) -> MatrixGF:
        if self._generator is None:
            self._generator = self.parity.kernel()
        return self._generator

    def __repr__(self):
        return f"<[{self.n}, {self.k}] code over {self.field!r}>"

    def dual(self) -> "BlockCode":
        return BlockCode._independent(self.field, self.generator, self.parity,
                                      weights=self._weights, side=1 - self._side)

    # --- distance machinery ---------------------------------------------

    def _enumerated(self, of_dual: bool):
        """_enumerate_weights of the generator, the code's codewords, or of
        the parity, its dual's, run once for the code and its duals; the
        witness is copied, since it may be a row of the whole low table."""
        slot = self._side ^ of_dual
        if self._weights[slot] is None:
            counts, d, wit = _enumerate_weights(
                self.field, (self.parity if of_dual else self.generator).a)
            self._weights[slot] = counts, d, None if wit is None else np.array(wit, ndmin=2)
        return self._weights[slot]

    def min_distance(self, budget: int = DESK_ENUM_BUDGET) -> DistanceBound:
        if self.k == 0:
            raise ValueError("the zero code has no minimum distance")
        q = self.field.q
        if q ** self.k <= budget:
            _, d, wit = self._enumerated(False)
            return DistanceBound(d, d, "enumeration", "enumeration", wit)
        if q ** (self.n - self.k) <= budget:
            counts, _, _ = self._enumerated(True)
            dist = macwilliams_transform([int(c) for c in counts], self.n, q)
            d = next(i for i in range(1, self.n + 1) if dist[i])
            return DistanceBound(d, d, "macwilliams", "macwilliams")
        # out of budget only a witness is searched: rref rows vanish on the
        # other pivot positions, so each has weight at most n - k + 1
        red, _ = self.generator.rref()
        weights = (red.a != 0).sum(axis=1)
        i = int(np.argmin(weights))
        return DistanceBound(1, int(weights[i]), "bounded", "none", red.a[i:i + 1])


def codeword_table(field: FiniteField, gen: np.ndarray) -> np.ndarray:
    """All q**k combinations of the rows of gen, in message order (digit t
    of the message weighs q**t).  Each row adds one gather: its q multiples
    become the slowest index of the table.  It is built by column and
    returned transposed, so by_column only narrows its type."""
    n = gen.shape[1]
    cw = np.zeros((n, 1), dtype=np.int32)
    for row in gen:
        mult = field._vmul(row[:, None], np.arange(field.q, dtype=np.int32)[None, :])
        cw = field._vadd(mult[:, :, None], cw[:, None, :]).reshape(n, -1)
    return cw.T


def by_column(table: np.ndarray, q: int) -> np.ndarray:
    """table stored one row per column, in the narrowest type of q symbols."""
    return np.ascontiguousarray(table.T, dtype=np.min_scalar_type(q - 1))


def mismatches(table_t: np.ndarray, want: np.ndarray) -> np.ndarray:
    """out[j, u] = #{c : table_t[c, u] != want[j, c]}, for a table stored by
    by_column: one comparison and one add per column of b * rows entries,
    counted in the narrowest type that holds n.  out is stored with its
    longer axis contiguous, so both passes run long inner loops whether
    the batch or the table is the larger."""
    n, rows = table_t.shape
    order = "F" if len(want) > rows else "C"
    want = np.asarray(want, dtype=table_t.dtype, order=order)
    out = np.zeros((len(want), rows), dtype=np.min_scalar_type(n), order=order)
    hit = np.empty(out.shape, dtype=bool, order=order)
    hits = hit.view(np.uint8)  # added as numbers, without a cast per column
    for c in range(n):
        np.not_equal(table_t[c], want[:, c, None], out=hit)
        out += hits
    return out


def _low_rows(q: int, k: int) -> int:
    """The most rows a that keep q**a <= _CHUNK, at least one if k > 0."""
    a = min(k, 1)
    while a < k and q ** (a + 1) <= _CHUNK:
        a += 1
    return a


def _representatives(field: FiniteField, gen: np.ndarray):
    """In message order, one table for each p = 0, 1, ...: row p plus each
    combination of the rows below it, the combinations whose top nonzero
    message digit is 1.  Every nonzero combination is lam times exactly
    one of them, for one lam != 0."""
    for p in range(len(gen)):
        yield field._vadd(codeword_table(field, gen[:p]), gen[p][None, :])


def _enumerate_weights(field: FiniteField, gen: np.ndarray):
    """Weight counts over all q**k codewords, plus the first codeword of
    least weight over the nonzero messages, in message order."""
    q = field.q
    n = gen.shape[1]
    a = _low_rows(q, len(gen))
    low = codeword_table(field, gen[:a])
    low_t = by_column(low, q)
    w = (low != 0).sum(axis=1)  # block 0: the low codewords alone
    counts = np.bincount(w, minlength=n + 1)
    w[0] = n + 1  # zero message
    i = int(np.argmin(w))
    best_w, best = int(w[i]), low[i]
    step = max(1, _SCORE_CHUNK // len(low))
    for reps in _representatives(field, gen[a:]):
        for s in range(0, len(reps), step):
            # messages low + h weigh #{c : low[c] != -h[c]}, and the blocks
            # low + lam * h of h's multiples weigh the same
            h = reps[s:s + step]
            w = mismatches(low_t, field._vneg(h))
            counts += np.bincount(w.ravel(), minlength=n + 1) * (q - 1)
            i = int(np.argmin(w))
            if w.flat[i] < best_w:
                best_w, best = int(w.flat[i]), field._vadd(low[i % len(low)], h[i // len(low)])
    return counts, best_w, (best if best_w <= n else None)


def macwilliams_transform(counts: list[int], n: int, q: int) -> list[int]:
    """Weight distribution of the dual code, exactly, from that of the code.

    The dual counts are the coefficients of
    sum_j A_j (1 + (q-1) z)**(n-j) (1 - z)**j divided by the code size.
    Horner's rule on Python ints builds the sum as P <- P (1 - z) + A_j a_j
    for j from n down to 0, with a_j = (1 + (q-1) z)**(n-j) grown by one
    factor per step: O(n) a step, O(n**2) in all.
    """
    size = sum(counts)
    poly = [0] * (n + 1)
    apow = [1] + [0] * n
    for j in range(n, -1, -1):
        for i in range(n - j, 0, -1):
            apow[i] += (q - 1) * apow[i - 1]
        for i in range(n, 0, -1):
            poly[i] -= poly[i - 1]
        for i in range(n - j + 1):
            poly[i] += counts[j] * apow[i]
    out = []
    for s in poly:
        if s % size:
            raise AqccError("MacWilliams sum not divisible by the code size")
        out.append(s // size)
    return out


# --- cyclic codes ----------------------------------------------------------


@dataclass(eq=False)
class CyclicStructure:
    """A cyclic-type code together with its per-exponent parity row groups.

    row_groups[c], for c the smallest member of each cyclotomic coset of
    the defining set, is the base-field expansion of the parity row built
    from zeta**c in basis coordinate order: all L = m rows of it for a
    coset of m members, which span exactly m dimensions, and for a shorter
    coset the rows left after zero and dependent rows are removed.
    designed is the longest-circular-run distance bound.
    """

    field: FiniteField
    n: int
    ext: FiniteField
    zeta: int
    m: int
    defining_set: tuple[int, ...]
    designed: int
    row_groups: dict[int, np.ndarray]
    code: BlockCode


def _closure(n: int, q: int, start: set[int]) -> tuple[int, ...]:
    out = set()
    for c in start:
        c %= n
        while c not in out:
            out.add(c)
            c = (c * q) % n
    return tuple(sorted(out))


def _longest_circular_run(defining: tuple[int, ...], n: int) -> int:
    members = set(defining)
    if len(members) == n:
        return n
    best = 0
    for c in defining:
        if (c - 1) % n in members:
            continue  # only start runs at their first element
        length = 0
        while (c + length) % n in members:
            length += 1
        best = max(best, length)
    return best


def cyclic_structure(field: FiniteField, n: int, exponents) -> CyclicStructure:
    """Parity structure with rows zeta**(c*j) for each requested exponent c.

    The exponent set is first closed under multiplication by q mod n,
    which is what makes the result a code over GF(q) with the usual run
    bound.  The rows of a coset's members c*q**j span one GF(q) space of
    dimension |coset| (MacWilliams and Sloane, ch. 7), so the parity
    stacks one group per coset, its smallest member's.  Each coset is
    closed once, and the rows zeta**(c*j) of all smallest members are
    expanded over GF(q) in one array pass.  A coset of m = [GF(q**m) :
    GF(q)] members keeps its m coordinate rows as they are; only a shorter
    coset is eliminated.  Distinct cosets span independent spaces, so the
    stack has full row rank, which its one right inverse, the seed of the
    split generators, re-proves.
    """
    q = field.q
    m = multiplicative_order(q, n)
    ext = FiniteField.get(field.p, field.l * m)
    zeta = ext.root_of_unity(n)
    basis = SubfieldBasis(field, ext)
    defining = _closure(n, q, set(exponents))
    designed = _longest_circular_run(defining, n) + 1

    cosets, seen = [], set()
    for c in defining:  # ascending, so c is the smallest member of a new coset
        if c not in seen:
            cosets.append(_closure(n, q, {c}))
            seen.update(cosets[-1])
    reps = np.array([coset[0] for coset in cosets], dtype=np.int64)
    zpow = ext.powers(zeta, n)
    # coords[r, i, j]: coordinate i of zeta**(c*j) for the r-th representative c
    coords = basis.expand_array(zpow[np.outer(reps, np.arange(n)) % n]).transpose(0, 2, 1)
    groups: dict[int, np.ndarray] = {}
    for coset, rows in zip(cosets, coords):
        if len(coset) < m:
            rows = rows[rows.any(axis=1)]
            if len(rows) > 1:
                rows = MatrixGF(field, rows).remove_dependent_rows().a
        groups[coset[0]] = rows
    parity = MatrixGF(field, np.concatenate(list(groups.values()), axis=0))
    code = BlockCode._independent(field, parity)
    return CyclicStructure(field, n, ext, zeta, m, defining, designed, groups, code)


def bch_parity(field: FiniteField, n: int, delta: int, b: int = 0) -> CyclicStructure:
    """BCH code of designed distance delta: exponents b..b+delta-2, closed."""
    if not 2 <= delta <= n:
        raise InvalidDesignedDistance(f"need 2 <= delta <= n, got {delta}")
    return cyclic_structure(field, n, range(b, b + delta - 1))


def rs_parity(field: FiniteField, n: int, delta: int, b: int = 0) -> CyclicStructure:
    """Reed-Solomon parity rows; needs a primitive n-th root in GF(q) itself."""
    if not 2 <= delta <= n:
        raise InvalidDesignedDistance(f"need 2 <= delta <= n, got {delta}")
    if (field.q - 1) % n:
        raise RootOfUnityUnavailable(f"{n} does not divide q - 1 = {field.q - 1}")
    return cyclic_structure(field, n, range(b, b + delta - 1))


# --- generalized Reed-Solomon codes ------------------------------------------


@dataclass(eq=False)
class GrsCode:
    """GRS code over explicit evaluation points with verified dual multipliers.

    The parity matrix rows are w_j * points_j**r for r = 0..n-k-1, where w
    is the closed-form dual multiplier vector; construction re-verifies
    G @ H.T == 0 rather than trusting the formula.
    """

    field: FiniteField
    points: tuple[int, ...]
    multipliers: tuple[int, ...]
    k: int
    dual_multipliers: tuple[int, ...]
    code: BlockCode

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def designed(self) -> int:  # the Singleton bound, which a GRS code attains
        return self.n - self.k + 1

    @property
    def row_groups(self) -> dict[int, np.ndarray]:
        return {r: self.code.parity.a[r:r + 1] for r in range(self.n - self.k)}


def grs_build(field: FiniteField, points, multipliers, k: int) -> GrsCode:
    points = tuple(int(x) for x in points)
    multipliers = tuple(int(v) for v in multipliers)
    n = len(points)
    if len(set(points)) != n:
        raise DuplicateEvaluationPoint("evaluation points must be distinct")
    if len(multipliers) != n:
        raise ValueError("need one multiplier per point")
    if not all(0 <= x < field.q for x in points + multipliers):
        raise ValueError(f"points and multipliers must be elements of {field!r}")
    if any(v == 0 for v in multipliers):
        raise ZeroMultiplier("column multipliers must be nonzero")
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n - 1, got k = {k}")

    f = field
    pts = np.array(points, dtype=np.int32)
    vpow = np.empty((max(k, n - k), n), dtype=np.int32)
    row = np.ones(n, dtype=np.int32)
    for r in range(vpow.shape[0]):
        vpow[r] = row
        row = f._vmul(row, pts)
    gen = f._vmul(vpow[:k], np.array(multipliers, dtype=np.int32)[None, :])

    # w_j = 1 / (v_j prod_{i != j} (x_j - x_i)): the differences with a 1
    # on the diagonal, multiplied column by column
    diff = f._vsub(pts[:, None], pts[None, :])
    np.fill_diagonal(diff, 1)
    prod = np.array(multipliers, dtype=np.int32)
    for i in range(n):
        prod = f._vmul(prod, diff[:, i])
    w = f._vinv(prod)
    par = f._vmul(vpow[:n - k], w[None, :])

    g_m = MatrixGF(f, gen)
    h_m = MatrixGF(f, par)
    if not (g_m @ h_m.T).is_zero():
        raise AqccError("dual multiplier identity failed; GRS parity is wrong")
    code = BlockCode._independent(f, h_m, g_m)
    return GrsCode(f, points, tuple(multipliers), k, tuple(w.tolist()), code)
