"""Stabilizer assembly for CSS-type convolutional codes.

A nested pair V2 <= V1 of classical convolutional codes yields a
quantum convolutional code: one block of stabilizer rows carries a
parity check of V1 on the X side, the other carries a generator of V2 on
the Z side.  Symplectic self-orthogonality of the assembled matrix is
equivalent to the containment V2 <= V1, and this module verifies it
explicitly instead of assuming it.  assemble_stabilizer builds the
stabilizer [H1 0; 0 G2], a StabilizerMatrix held as its two blocks.  For
its halves X = [H1; 0] and Z = [0; G2] the residual X rev(Z)^T - Z rev(X)^T
is zero but for the blocks A = H1 rev(G2)^T and -D^(2 mu) A(1/D)^T, so it
vanishes exactly when the one product A does, which also refuses blocks
of different fields or lengths.

derive_aqcc builds one minimal dual, H1 = dual(V1), the parity check on
the X side, recording G1's degree gap, and returns the stabilizer; its
logical, n - rows, is k1 - k2.  V2-perp matters only through its free
distance, so its dual is built where that distance is searched
(certify.certify_plan at desk effort, where the chain of G2's slice
codes leaves it open), not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convo import PolyMatrix, block_toeplitz, contains, dual_generator, reduce
from .errors import SymplecticViolation, TooFewFrames, ZeroLogicalDimension
from .matrix import MatrixGF


@dataclass(frozen=True)
class StabilizerMatrix:
    """Polynomial stabilizer matrix [h1 0; 0 g2], held as its two blocks:
    h1 on the X side of the first h1.rows rows, g2 on the Z side of the rest."""

    h1: PolyMatrix
    g2: PolyMatrix

    @property
    def n(self) -> int:
        return self.h1.cols

    @property
    def rows(self) -> int:
        return self.h1.rows + self.g2.rows

    @property
    def mu_star(self) -> int:
        return max(self.h1.max_degree, self.g2.max_degree, 0)

    @property
    def gamma(self) -> int:
        return sum(max(d, 0) for d in self.h1.row_degrees + self.g2.row_degrees)

    @property
    def logical(self) -> int:
        """k1 - k2: h1 has n - k1 rows and g2 has k2."""
        return self.n - self.rows


def assemble_stabilizer(h1: PolyMatrix, g2: PolyMatrix) -> StabilizerMatrix:
    """Build the block-diagonal stabilizer from a parity check and a generator.

    h1 goes on the X side and g2 on the Z side.  Raises SymplecticViolation
    when the two inputs fail the orthogonality check, which happens exactly
    when the code g2 generates is not inside the code h1 checks.  Of the
    residual's nonzero blocks A = h1 rev(g2)^T and -D^(2 mu) A(1/D)^T only
    A is computed; its entry (i, j) pairs rows i and h1.rows + j.
    """
    stab = StabilizerMatrix(h1, g2)
    res = h1 @ g2.reverse(stab.mu_star).T
    if not res.is_zero():
        i, j = np.argwhere(res.c.any(axis=0))[0].tolist()
        pairing = np.trim_zeros(res.c[:, i, j], "b").tolist()
        raise SymplecticViolation(f"rows {i} and {h1.rows + j} have pairing {pairing}")
    return stab


@dataclass(frozen=True)
class ExpandedStabilizer:
    """Scalar truncation of the semi-infinite stabilizer matrix."""

    matrix: MatrixGF
    frames: int
    rank: int
    defect: int


def semi_infinite_expand(stab: StabilizerMatrix, frames: int) -> ExpandedStabilizer:
    """Unroll the stabilizer over a finite window of frames.

    Block row t holds the stabilizer rows started at time t; columns are
    frame-major with the X half before the Z half inside each frame.
    Rows whose band would extend past the window are truncated, so the
    reported defect counts dependencies among truncated rows as well.
    """
    mu = stab.mu_star
    if frames < mu + 1:
        raise TooFewFrames(f"window of {frames} frames cannot hold degree {mu}")
    h1, g2, n = stab.h1, stab.g2, stab.n
    coeffs = np.zeros((mu + 1, stab.rows, 2 * n), dtype=np.int32)
    coeffs[:, : h1.rows, :n] = h1.coefficients(mu + 1)
    coeffs[:, h1.rows :, n:] = g2.coefficients(mu + 1)
    m = MatrixGF(h1.field, block_toeplitz(coeffs, frames, frames))
    rk = m.rank()
    return ExpandedStabilizer(m, frames, rk, frames * stab.rows - rk)


@dataclass(frozen=True)
class NestedPair:
    """Two full-rank generators with rowspace(inner) inside rowspace(outer).

    witness is X with X @ outer == inner; for a layout it is a 0/1
    selection, whose row i marks the outer row that inner row i is."""

    outer: PolyMatrix
    inner: PolyMatrix
    witness: PolyMatrix


def build_nested_pair(outer: PolyMatrix, inner: PolyMatrix) -> NestedPair:
    """Check full row rank of both generators and witness inner <= outer.

    reduce is the rank test, for the inner generator here and for the
    outer one inside contains: a reduced generator has full row rank,
    which its leading echelon shows, and on any other one the row steps
    raise RankDeficient on dependent rows.  The containment witness X
    satisfies X @ outer == inner.  When every inner row is an outer row,
    as in every layout, X is the 0/1 selection of them, the map from
    inner rows to outer rows, proved by the rows' equal bytes; any other
    pair takes the division, whose X contains checks by that product.
    contains also refuses generators of different fields or lengths.
    """
    if inner.rows == 0:
        raise ValueError("inner generator needs at least one row")
    reduce(inner)
    return NestedPair(outer, inner, contains(outer, inner))


def derive_aqcc(pair: NestedPair) -> StabilizerMatrix:
    """Build the minimal dual of the outer generator and the stabilizer.

    The stabilizer holds two blocks: h1, the dual of the outer generator,
    on the X side and the reduced inner generator g2 on the Z side; it
    computes n, gamma (its external degree), mu_star and logical, n less
    its rows, from them.  The free distances of the outer generator and of
    the inner generator's dual bound the two sides; certify.certify_plan
    computes them and reads dz and dx from the two brackets.
    """
    k1, k2 = pair.outer.rows, pair.inner.rows
    if k1 <= k2:
        raise ZeroLogicalDimension(f"k1 = {k1} and k2 = {k2} leave no logical stream")
    return assemble_stabilizer(dual_generator(pair.outer), reduce(pair.inner))
