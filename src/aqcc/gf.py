"""Exact arithmetic in small finite fields.

Elements of GF(p**l) are packed integer indices: the element whose
coordinate vector over GF(p) is (c0, c1, ..., c_{l-1}), with c0 the constant
term, gets the index sum(c_i * p**i).  Indices run from 0 to q - 1 where
q = p**l.

The public operations (add, sub, neg, mul, inv, div, pow) accept plain
ints, numpy integer scalars or numpy integer arrays, and the first six
broadcast the way numpy does.  Scalar operations on in-range Python ints
skip numpy: addition is XOR for p = 2 and (a + b) % p over a prime field,
multiplication and inversion go through log/exp lists of O(q) length.
Every other operand passes one range check, which raises IndexError for
anything outside range(q), negatives included, and then goes through the
array kernels below.  Only the kernels and the int path read the tables;
powers lists a**0 .. a**(n - 1) by doubling on the kernels.

The other modules do their array work through one private set of kernels
(_vadd, _vsub, _vneg, _vinv, _vmul and the matrix product _vmatmul) on
int32 arrays of in-range indices; only this module knows the table layout.
Each kernel picks its arithmetic from the field.  For p = 2 the packed index
is the GF(2) coordinate vector, so addition is XOR, and a matrix product
gathers all its products at once and sums them by XOR.  Over a prime field
(l = 1) sums and products are int32 ops reduced mod p in place, and a
matrix product is one int64 matmul and one % p.  The other products, and
sums over odd extension fields, are table gathers: one 1-d gather at
a * q + b from the flattened table for operands of one shape, the 2-d index
for a broadcast pair such as a column times a row, which builds no index
array.  int32 holds a * q + b and (p - 1)**2 for q <= MAX_Q.  The kernels
check nothing and return new int32 arrays.

So each kind of field builds only the tables its kernels read: a prime
field holds the O(q) negation and inverse arrays alone, GF(2**l) adds the
q by q product table _MUL, and an odd extension field both _MUL and the
q by q sum table _ADD.

matrix eliminates rows held as Python ints, one byte an entry, over
GF(2**l) and prime fields with q <= 256 and p <= 127.  For them _row_tables
holds, built on first use, a 256-byte translate table per element f for
x -> x / f and for x -> -f * x.  A prime field's rows are summed as big
ints and reduced mod p in every byte at once, and no byte of that step
exceeds 2(p - 1) + 128 - p <= 253, so no carry crosses an entry.

Every FiniteField uses the canonical modulus for GF(p**l): the monic
irreducible polynomial of degree l whose own packed index is smallest.
For GF(16) that is x**4 + x + 1, for GF(256) it is
x**8 + x**4 + x**3 + x + 1.
Its generator is the least element of order q - 1 (1 for GF(2)): the
powers of g = 1, 2, ... are walked by raw products until they return to
1, and the first walk with q - 1 elements is exp.  exp fixes the discrete
logs, root_of_unity and the default GRS points, so every certificate
byte depends on this rule.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    FieldMismatch,
    NonPrimeCharacteristic,
    NotCoprime,
    OrderNotDividing,
)

# Extension fields hold a q by q product table (odd ones a sum table too),
# so this bounds their memory at a few dozen MB; prime fields hold O(q).
MAX_Q = 2048
# entries of the product array one step of _vmatmul builds over GF(2**l)
_MATMUL_CHUNK = 1 << 18


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def field_order(q: int) -> tuple[int, int]:
    """(p, l) with q == p**l, p prime and l >= 1, for a q the tables can hold.

    Raises ValueError for q < 2, for any q with two distinct prime factors,
    and for a q past MAX_Q, which is refused before it is factored, so a
    huge order costs no trial division.
    """
    if q > MAX_Q:
        raise ValueError(f"q = {q} exceeds the supported table size {MAX_Q}")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p = factors[0]
    l = 0
    while q > 1:
        q //= p
        l += 1
    return p, l


def multiplicative_order(q: int, n: int) -> int:
    """Smallest m >= 1 with q**m = 1 mod n.

    This is the extension degree needed before GF(q**m) contains a
    primitive n-th root of unity.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    if math.gcd(q, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")
    m = 1
    r = q % n
    while r != 1:
        r = (r * q) % n
        m += 1
    return m


# --- polynomial helpers over GF(p), coefficient tuples low to high -------

def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    k = len(c)
    while k and c[k - 1] == 0:
        k -= 1
    return c[:k]


def _poly_mod(num: tuple[int, ...], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    num = list(num)
    dn = len(den) - 1
    lead_inv = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        f = (c * lead_inv) % p
        for j in range(dn + 1):
            num[i - dn + j] = (num[i - dn + j] - f * den[j]) % p
    return _poly_trim(tuple(c % p for c in num[:dn]))


def _unpack(idx: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg/2."""
    coeffs = _poly_trim(tuple(c % p for c in coeffs))
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for m in range(p ** d, 2 * p ** d):
            den = _unpack(m, p, d + 1)
            if not _poly_mod(coeffs, den, p):
                return False
    return True


def default_modulus(p: int, l: int) -> tuple[int, ...]:
    """Monic irreducible of degree l with the smallest packed index; every
    degree has one."""
    cands = (_unpack(m, p, l + 1) for m in range(p ** l, 2 * p ** l))
    return next(c for c in cands if poly_is_irreducible(c, p))


class FiniteField:
    """GF(p**l) with the tables its kernels read (see the module docstring).

    Use FiniteField.get(p, l) to share instances; construction of an
    extension field builds q by q tables, which is the expensive part.
    """

    _cache: dict[tuple[int, int], "FiniteField"] = {}

    def __init__(self, p: int, l: int = 1):
        if prime_factors(p) != [p]:
            raise NonPrimeCharacteristic(f"{p} is not prime")
        if l < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** l
        field_order(q)  # refuses a field past the table size
        self.p = p
        self.l = l
        self.q = q
        self.modulus = default_modulus(p, l)
        self._build_tables()

    @classmethod
    def get(cls, p: int, l: int = 1) -> "FiniteField":
        key = (p, l)
        if key not in cls._cache:
            cls._cache[key] = cls(p, l)
        return cls._cache[key]

    # --- construction ----------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Coordinate polynomial product mod the modulus; bootstrap only."""
        p, l = self.p, self.l
        da = _unpack(a, p, l)
        db = _unpack(b, p, l)
        prod = [0] * (2 * l - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        rem = _poly_mod(tuple(prod), self.modulus, p)
        return sum(c * p ** i for i, c in enumerate(rem))

    def _build_tables(self) -> None:
        p, l, q = self.p, self.l, self.q
        idx = np.arange(q, dtype=np.int64)
        weights = p ** np.arange(l, dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % p

        if p > 2 and l > 1:  # the one kind whose sums are table gathers
            add = np.empty((q, q), dtype=np.int32)
            for start in range(0, q, 256):
                blk = (digits[start:start + 256, None, :] + digits[None, :, :]) % p
                add[start:start + 256] = blk @ weights
            self._ADD = add
        self._NEG = ((((-digits) % p) @ weights)).astype(np.int32)

        # products come from discrete logs over the generator, whose walk
        # of powers is exp (see the module docstring); a power of an earlier
        # candidate has order below q - 1, so it is not walked
        seen = np.zeros(q, dtype=bool)
        for g in range(1, q):
            if seen[g]:
                continue
            walk, cur = [1], g
            while cur != 1:
                walk.append(cur)
                cur = self._mul_raw(cur, g)
            if len(walk) == q - 1:
                break
            seen[walk] = True
        self.generator = g
        exp = np.array(walk, dtype=np.int32)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)

        if l > 1:  # products over a prime field are computed mod p
            # log a + log b < 2(q - 1) indexes exp doubled with no mod; 256
            # rows at a time keep the int32 index and product blocks small
            mul = np.zeros((q, q), dtype=np.int32)
            exp2 = np.concatenate([exp, exp])
            la = log[1:].astype(np.int32)
            for start in range(0, q - 1, 256):
                mul[1 + start:257 + start, 1:] = exp2[la[start:start + 256, None] + la[None, :]]
            self._MUL = mul
        inv = np.zeros(q, dtype=np.int32)
        inv[exp] = exp[(-np.arange(q - 1)) % (q - 1)]
        self._INV = inv

        # the int path: exp doubled, so a sum of two logs needs no mod; it
        # reads no log of 0
        self._exp_list = exp.tolist() * 2
        self._log_list = log.tolist()
        self._neg_list = self._NEG.tolist()

    # --- arithmetic --------------------------------------------------------

    @staticmethod
    def _out(r):
        if np.ndim(r) == 0:
            return int(r)
        return r

    def _index(self, a) -> np.ndarray:
        """a as an int32 index array, or IndexError outside range(q)."""
        arr = np.asarray(a)
        if arr.dtype.kind not in "iu":
            raise IndexError(f"field elements are integers, got {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.q):
            raise IndexError(f"operand outside range({self.q})")
        return arr.astype(np.int32, copy=False)

    # Each op first takes the int fast path when every operand is a Python
    # int in range(q); anything else (arrays, numpy scalars, out-of-range
    # values) passes _index and goes through the kernels.

    def add(self, a, b):
        if type(a) is int and type(b) is int and 0 <= a < self.q and 0 <= b < self.q:
            if self.p == 2:
                return a ^ b
            if self.l == 1:
                return (a + b) % self.p
            return self._ADD.item(a, b)
        return self._out(self._vadd(self._index(a), self._index(b)))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if type(a) is int and 0 <= a < self.q:
            return self._neg_list[a]
        return self._out(self._vneg(self._index(a)))

    def mul(self, a, b):
        if type(a) is int and type(b) is int and 0 <= a < self.q and 0 <= b < self.q:
            if a and b:
                log = self._log_list
                return self._exp_list[log[a] + log[b]]
            return 0
        return self._out(self._vmul(self._index(a), self._index(b)))

    def inv(self, a):
        if type(a) is int and 0 < a < self.q:
            return self._exp_list[self.q - 1 - self._log_list[a]]
        a = self._index(a)
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no inverse")
        return self._out(self._vinv(a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # --- array kernels: in-range int32 index arrays, int32 out ----------------
    # numpy returns a scalar for 0-d operands, which out= cannot take, so
    # the prime-field kernels take the result back to an array first

    def _gather(self, table, a, b):
        """table[a, b] for index arrays: operands of one shape take one 1-d
        gather at a * q + b, a broadcast pair the 2-d index, which builds no
        index array."""
        if a.shape == b.shape:
            return table.ravel()[a * self.q + b]
        return table[a, b]

    def _vadd(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b, dtype=np.int32)
        if self.l == 1:
            s = np.asarray(np.add(a, b, dtype=np.int32))
            return np.remainder(s, self.p, out=s)
        return self._gather(self._ADD, a, b)

    def _vsub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b, dtype=np.int32)
        if self.l == 1:
            s = np.asarray(np.subtract(a, b, dtype=np.int32))
            return np.remainder(s, self.p, out=s)
        return self._gather(self._ADD, a, self._NEG[b])

    def _vneg(self, a):
        if self.p == 2:
            return np.array(a, dtype=np.int32)
        if self.l == 1:
            s = np.asarray(np.subtract(self.p, a, dtype=np.int32))
            return np.remainder(s, self.p, out=s)
        return self._NEG[a]

    def _vinv(self, a):
        return self._INV[a]

    def _vmul(self, a, b):
        if self.l == 1:
            s = np.asarray(np.multiply(a, b, dtype=np.int32))
            return np.remainder(s, self.p, out=s)
        if type(a) is int:  # a scalar first: one table row scales all of b
            return self._MUL[a][b]
        return self._gather(self._MUL, a, b)

    def _vmatmul(self, a, b):
        """a @ b for 2-d index arrays."""
        if self.l == 1:
            s = np.matmul(a, b, dtype=np.int64)
            return np.remainder(s, self.p, out=s).astype(np.int32)
        acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int32)
        if self.p == 2:
            # all products a[i, s] * b[s, j] by one gather, summed by XOR over
            # s; slices of s keep the product array near _MATMUL_CHUNK
            step = max(1, _MATMUL_CHUNK // max(acc.size, 1))
            for s in range(0, a.shape[1], step):
                prod = self._MUL[a[:, s:s + step].T[:, :, None], b[s:s + step, None, :]]
                acc ^= np.bitwise_xor.reduce(prod, axis=0)
            return acc
        for s in range(a.shape[1]):
            acc = self._vadd(acc, self._vmul(a[:, s, None], b[None, s, :]))
        return acc

    # --- row tables: matrix's integer-row reduction over small fields ----

    @functools.cached_property
    def _row_tables(self) -> tuple[tuple[bytes, ...], tuple[bytes, ...]] | None:
        """(norm, negmul), or None for a field without them (see the
        module docstring)."""
        p, q = self.p, self.q
        if q > 256 or (p != 2 and (self.l > 1 or p > 127)):
            return None
        elems = np.arange(q, dtype=np.int32)
        tables = np.zeros((2, q, 256), dtype=np.uint8)
        tables[0, 1:, :q] = self._vmul(self._vinv(elems[1:])[:, None], elems[None, :])
        tables[1, :, :q] = self._vneg(self._vmul(elems[:, None], elems[None, :]))
        norm, negmul = (tuple(row.tobytes() for row in t) for t in tables)
        return norm, negmul

    def pow(self, a, k: int) -> int:
        a = int(self._index(a))
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if k else 1
        return self._exp_list[self._log_list[a] * k % (self.q - 1)]

    def powers(self, a, n: int) -> np.ndarray:
        """a**0, ..., a**(n - 1) as an int32 array, by doubling: the first
        k powers times a**k are the next k."""
        step = int(self._index(a))
        out = np.ones(n, dtype=np.int32)
        k = 1
        while k < n:
            out[k:2 * k] = self._vmul(step, out[:min(k, n - k)])
            step = self.mul(step, step)
            k *= 2
        return out

    def exp(self, i: int) -> int:
        """generator**i, exponent taken mod q - 1."""
        return self._exp_list[i % (self.q - 1)]

    def root_of_unity(self, n: int) -> int:
        """A primitive n-th root of unity, or OrderNotDividing."""
        if n < 1 or (self.q - 1) % n:
            raise OrderNotDividing(f"no element of order {n} in {self!r}")
        return self.exp((self.q - 1) // n)

    # --- misc ------------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.l, self.modulus) == (other.p, other.l, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.l, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


# --- subfield embedding -------------------------------------------------

@functools.cache
def embedding(sub: FiniteField, ext: FiniteField) -> np.ndarray:
    """Index table of the field embedding GF(p**a) -> GF(p**b), a | b.

    The image of the subfield's canonical root is the root of the
    subfield's modulus with the smallest packed index in ext, so the table
    is deterministic.  Raises FieldMismatch when no embedding exists.
    """
    if sub.p != ext.p:
        raise FieldMismatch(f"different characteristic: {sub!r} vs {ext!r}")
    if ext.l % sub.l:
        raise FieldMismatch(f"{sub.l} does not divide {ext.l}")

    y = np.arange(ext.q, dtype=np.int32)
    acc = np.full(ext.q, sub.modulus[-1], dtype=np.int32)
    for c in reversed(sub.modulus[:-1]):
        acc = ext._vadd(ext._vmul(acc, y), np.full_like(acc, c))
    theta = int(np.flatnonzero(acc == 0)[0])

    powers = [1]
    for _ in range(sub.l - 1):
        powers.append(ext.mul(powers[-1], theta))
    sub_idx = np.arange(sub.q, dtype=np.int32)
    table = np.zeros(sub.q, dtype=np.int32)
    for i, pw in enumerate(powers):
        digit = (sub_idx // sub.p ** i) % sub.p
        table = ext._vadd(table, ext._vmul(pw, digit))
    return table


class SubfieldBasis:
    """Basis of GF(p**b) as a vector space over an embedded GF(p**a).

    The basis is (1, x, x**2, ..., x**(L-1)) where x is the extension
    field's canonical root and L = b // a; that set is always independent
    because x has degree exactly L over the subfield.  Every extension
    element is sum_i emb(c_i) * x**i for exactly one coordinate tuple c, so
    the inverse permutation of the table of all those sums, indexed by
    sum_i c_i * q_sub**i, gives expand_array() by lookup.
    """

    def __init__(self, sub: FiniteField, ext: FiniteField):
        emb = embedding(sub, ext)  # validates the pair
        self.sub = sub
        self.ext = ext
        self.L = ext.l // sub.l
        self._weights = sub.q ** np.arange(self.L, dtype=np.int32)
        # Horner's rule on whole tables: image <- x * image + emb(c), with
        # the new digit c fastest, so digit i weighs q_sub**i
        image = emb
        for _ in range(self.L - 1):
            image = ext._vadd(ext._vmul(ext.p, image)[:, None], emb[None, :]).ravel()
        self._coords = np.empty_like(image)
        self._coords[image] = np.arange(ext.q, dtype=np.int32)

    def expand_array(self, arr: np.ndarray) -> np.ndarray:
        """Subfield coordinates of extension elements; output shape is
        arr.shape + (L,)."""
        u = self._coords[self.ext._index(arr)]
        return (u[..., None] // self._weights) % self.sub.q
