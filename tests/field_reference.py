"""Table-free GF(q) arithmetic that the field kernels are checked against.

Over a prime field the reference computes with integers mod p.  Over an
extension field it adds GF(p) coordinate vectors digit by digit and
multiplies through the field's bootstrap polynomial product _mul_raw.
Nothing here reads the field's tables or its log/exp lists, so a kernel
and its reference share no derived data.  Every function takes index
arrays (or ints) that broadcast like numpy and returns int32 arrays.
"""

import functools

import numpy as np


def _digits(field, a):
    a = np.asarray(a, dtype=np.int64)
    return (a[..., None] // field.p ** np.arange(field.l)) % field.p


def _pack(field, digits):
    return ((digits % field.p) @ field.p ** np.arange(field.l)).astype(np.int32)


def add(field, a, b):
    return _pack(field, _digits(field, a) + _digits(field, b))


def neg(field, a):
    return _pack(field, -_digits(field, a))


def sub(field, a, b):
    return add(field, a, neg(field, b))


@functools.cache
def _raw_products(field):
    """Every product a * b as a polynomial product mod the field's modulus."""
    return np.array(
        [[field._mul_raw(a, b) for b in range(field.q)] for a in range(field.q)],
        dtype=np.int32,
    )


def mul(field, a, b):
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if field.l == 1:
        return (a * b % field.p).astype(np.int32)
    return _raw_products(field)[a, b]


def inv(field, a):
    """a**(q - 2), which is a**-1 for a != 0, by the raw product."""
    return np.vectorize(lambda x: power(field, int(x), field.q - 2), otypes=[np.int32])(a)


def div(field, a, b):
    return mul(field, a, inv(field, b))


def power(field, a, k):
    """a**k for one element by square and multiply; k < 0 inverts first."""
    base = int(inv(field, a)) if k < 0 else a
    out = 1
    k = abs(k)
    while k:
        if k & 1:
            out = int(mul(field, out, base))
        base = int(mul(field, base, base))
        k >>= 1
    return out


def matmul(field, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int32)
    for s in range(a.shape[1]):
        out = add(field, out, mul(field, a[:, s, None], b[None, s, :]))
    return out
