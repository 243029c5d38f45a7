"""Exception hierarchy for the aqcc package.

Every failure mode that callers are expected to catch has its own class so
that the CLI can map error categories onto exit codes without string
matching.  All of them derive from AqccError.
"""


class AqccError(Exception):
    """Base class for all errors raised by this package."""


# --- field construction -------------------------------------------------

class NonPrimeCharacteristic(AqccError):
    """The requested characteristic is not a prime number."""


class OrderNotDividing(AqccError):
    """No element of the requested multiplicative order exists (n does not divide q - 1)."""


class NotCoprime(AqccError):
    """Code length shares a factor with the field characteristic."""


class FieldMismatch(AqccError):
    """Two operands live in different fields and no embedding was requested."""


# --- block codes --------------------------------------------------------

class InvalidDesignedDistance(AqccError):
    """Designed distance outside 2 <= delta <= n."""


class RootOfUnityUnavailable(AqccError):
    """The field contains no primitive n-th root of unity."""


class DuplicateEvaluationPoint(AqccError):
    """Evaluation points of a generalized Reed-Solomon code must be distinct."""


class ZeroMultiplier(AqccError):
    """Column multipliers of a generalized Reed-Solomon code must be nonzero."""


# --- convolutional machinery --------------------------------------------

class RankConditionViolated(AqccError):
    """A parity-check split block exceeds the rank of the degree-zero block."""


class RankDeficient(AqccError):
    """A matrix that must have full row rank does not."""


class NotBasic(AqccError):
    """Polynomial generator has a non-unit invariant factor."""


class CatastrophicEncoder(AqccError):
    """Free distance requested for an encoder with no polynomial right inverse."""


# --- quantum assembly ---------------------------------------------------

class SymplecticViolation(AqccError):
    """Stabilizer rows fail the symplectic orthogonality identity."""


class TooFewFrames(AqccError):
    """Semi-infinite expansion needs at least memory + 1 frames."""


class ContainmentUnverified(AqccError):
    """Could not produce a coefficient witness for a claimed code containment."""


class ContainmentFailed(AqccError):
    """The inner code is provably not a subcode of the outer code."""


class ZeroLogicalDimension(AqccError):
    """The nested pair leaves no logical qudits (k1 <= k2)."""


# --- split-plan validation ----------------------------------------------

class IndependenceViolated(AqccError):
    """Interleaved split blocks are not linearly independent as one stack."""


class PartitionInvalid(AqccError):
    """Row partition handed to a split does not tile the parity-check matrix."""


# --- parameter screening -------------------------------------------------

class ParamOutOfRange(AqccError):
    """Family parameters violate the admissible range for that family."""
