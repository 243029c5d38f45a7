"""Stabilizer assembly for CSS-type convolutional codes.

A nested pair V2 <= V1 of classical convolutional codes yields a
quantum convolutional code: one block of stabilizer rows carries a
parity check of V1 on the X side, the other carries a generator of V2 on
the Z side.  Symplectic self-orthogonality of the assembled matrix is
equivalent to the containment V2 <= V1, and this module verifies it
explicitly instead of assuming it.  For X = [H1; 0] and Z = [0; G2] the
residual X rev(Z)^T - Z rev(X)^T is zero but for the blocks A = H1 rev(G2)^T
and -D^(2 mu) A(1/D)^T, so it vanishes exactly when the one product A does.

derive_aqcc builds one minimal dual, H1 = dual(V1), the parity check on
the X side; building it also records G1's degree gap.  V2-perp matters
only through its free distance, so its dual is built where that distance
is searched (certify.certify_plan at desk effort), not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convo import PolyMatrix, block_toeplitz, contains, dual_generator, reduce
from .errors import (
    FieldMismatch,
    SymplecticViolation,
    TooFewFrames,
    ZeroLogicalDimension,
)
from .matrix import MatrixGF


@dataclass(frozen=True)
class StabilizerMatrix:
    """Polynomial stabilizer matrix split into its X and Z halves."""

    x_part: PolyMatrix
    z_part: PolyMatrix

    def __post_init__(self):
        if self.x_part.shape != self.z_part.shape:
            raise ValueError("X and Z parts must share a shape")
        if self.x_part.field != self.z_part.field:
            raise FieldMismatch("X and Z parts live over different fields")

    @property
    def field(self):
        return self.x_part.field

    @property
    def n(self) -> int:
        return self.x_part.cols

    @property
    def rows(self) -> int:
        return self.x_part.rows

    @property
    def mu_star(self) -> int:
        return max(self.x_part.max_degree, self.z_part.max_degree, 0)

    @property
    def row_degrees(self) -> tuple[int, ...]:
        xd = self.x_part.row_degrees
        zd = self.z_part.row_degrees
        return tuple(max(a, b, 0) for a, b in zip(xd, zd))

    @property
    def gamma(self) -> int:
        return sum(self.row_degrees)


def assemble_stabilizer(h1: PolyMatrix, g2: PolyMatrix) -> StabilizerMatrix:
    """Build the block-diagonal stabilizer from a parity check and a generator.

    h1 goes on the X side and g2 on the Z side.  Raises SymplecticViolation
    when the two inputs fail the orthogonality check, which happens exactly
    when the code g2 generates is not inside the code h1 checks.  Of the
    residual's nonzero blocks A = h1 rev(g2)^T and -D^(2 mu) A(1/D)^T only
    A is computed; its entry (i, j) pairs rows i and h1.rows + j.
    """
    if h1.field != g2.field:
        raise FieldMismatch("parity check and generator fields differ")
    if h1.cols != g2.cols:
        raise ValueError(f"column counts differ: {h1.cols} vs {g2.cols}")
    mu = max(h1.max_degree, g2.max_degree, 0)
    res = h1 @ g2.reverse(mu).T
    if not res.is_zero():
        i, j = np.argwhere(res.c.any(axis=0))[0].tolist()
        pairing = np.trim_zeros(res.c[:, i, j], "b").tolist()
        raise SymplecticViolation(f"rows {i} and {h1.rows + j} have pairing {pairing}")
    parts = np.zeros((2, mu + 1, h1.rows + g2.rows, h1.cols), dtype=np.int32)
    parts[0, : len(h1.c), : h1.rows] = h1.c
    parts[1, : len(g2.c), h1.rows :] = g2.c
    return StabilizerMatrix(*(PolyMatrix.from_coefficients(h1.field, c) for c in parts))


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
    coeffs = np.concatenate(
        [stab.x_part.coefficients(mu + 1), stab.z_part.coefficients(mu + 1)], axis=2
    )
    m = MatrixGF(stab.field, block_toeplitz(coeffs, frames, frames))
    rk = m.rank()
    return ExpandedStabilizer(m, frames, rk, frames * stab.rows - rk)


@dataclass(frozen=True)
class NestedPair:
    """Two full-rank generators with rowspace(inner) inside rowspace(outer)."""

    outer: PolyMatrix
    inner: PolyMatrix
    witness: PolyMatrix

    @property
    def field(self):
        return self.outer.field

    @property
    def n(self) -> int:
        return self.outer.cols


def build_nested_pair(outer: PolyMatrix, inner: PolyMatrix) -> NestedPair:
    """Check full row rank of both generators and witness inner <= outer.

    reduce is the rank test, for the inner generator here and for the
    outer one inside contains: a reduced generator has full row rank,
    which its leading echelon shows, and on any other one the row steps
    raise RankDeficient on dependent rows.  The containment witness X
    satisfies X @ outer == inner; contains checks that product.
    """
    if outer.field != inner.field:
        raise FieldMismatch("outer and inner generators live over different fields")
    if outer.cols != inner.cols:
        raise ValueError(f"column counts differ: {outer.cols} vs {inner.cols}")
    if inner.rows == 0:
        raise ValueError("inner generator needs at least one row")
    reduce(inner)
    return NestedPair(outer, inner, contains(outer, inner))


@dataclass(frozen=True)
class AqccParameters:
    """Derived data of the quantum code attached to a nested pair."""

    n: int
    logical: int
    gamma: int
    mu_star: int
    stabilizer: StabilizerMatrix
    h1: PolyMatrix


def derive_aqcc(pair: NestedPair) -> AqccParameters:
    """Build the minimal dual of the outer generator and the stabilizer.

    h1, the dual of the outer generator, goes on the X side of the
    stabilizer and the reduced inner generator on the Z side.  gamma is
    the external degree of the stabilizer.  The free distances of the
    outer generator and of the inner generator's dual bound the two
    sides; certify.certify_plan computes them and reads dz and dx from
    the two brackets.
    """
    k1, k2 = pair.outer.rows, pair.inner.rows
    logical = k1 - k2
    if logical <= 0:
        raise ZeroLogicalDimension(f"k1 = {k1} and k2 = {k2} leave no logical stream")
    h1 = dual_generator(pair.outer)
    stab = assemble_stabilizer(h1, reduce(pair.inner))
    return AqccParameters(
        n=pair.n,
        logical=logical,
        gamma=stab.gamma,
        mu_star=stab.mu_star,
        stabilizer=stab,
        h1=h1,
    )
