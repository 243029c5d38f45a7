"""Asymmetric quantum convolutional codes from nested classical codes.

The package builds classical convolutional codes by splitting parity-check
matrices of cyclic and generalized Reed-Solomon block codes, assembles
CSS-type stabilizer matrices from nested pairs, and certifies every
algebraic claim (ranks, degrees, containment, symplectic orthogonality,
distance bounds) by exact computation over small finite fields.
"""

from .block import (
    BlockCode,
    CyclicStructure,
    DistanceBound,
    GrsCode,
    bch_parity,
    cyclic_structure,
    grs_build,
    rs_parity,
)
from .certify import (
    AqccCertificate,
    Budgets,
    certify_params,
    certify_plan,
)
from .convo import (
    PolyMatrix,
    contains,
    dual_generator,
    format_poly_matrix,
    is_basic,
    is_reduced,
    parse_poly_matrix,
    rank_poly,
    reduce,
    smith_form,
    split_to_generator,
)
from .css import (
    NestedPair,
    StabilizerMatrix,
    assemble_stabilizer,
    build_nested_pair,
    derive_aqcc,
    semi_infinite_expand,
)
from .errors import AqccError
from .families import (
    FAMILIES,
    ExpectedTuple,
    FamilyParams,
    LayoutPlan,
    construction_i_plan,
    demo_vectors,
    enumerate_family,
    expected_tuple,
    layout,
    validate_params,
)
from .gf import FiniteField, SubfieldBasis
from .matrix import MatrixGF, field_from_order
from .trellis import free_distance

__version__ = "0.1.0"

__all__ = [
    "AqccCertificate",
    "AqccError",
    "BlockCode",
    "Budgets",
    "CyclicStructure",
    "DistanceBound",
    "ExpectedTuple",
    "FAMILIES",
    "FamilyParams",
    "FiniteField",
    "GrsCode",
    "LayoutPlan",
    "MatrixGF",
    "NestedPair",
    "PolyMatrix",
    "StabilizerMatrix",
    "SubfieldBasis",
    "assemble_stabilizer",
    "bch_parity",
    "build_nested_pair",
    "certify_params",
    "certify_plan",
    "construction_i_plan",
    "contains",
    "cyclic_structure",
    "demo_vectors",
    "derive_aqcc",
    "dual_generator",
    "enumerate_family",
    "expected_tuple",
    "field_from_order",
    "format_poly_matrix",
    "free_distance",
    "grs_build",
    "is_basic",
    "is_reduced",
    "layout",
    "parse_poly_matrix",
    "rank_poly",
    "reduce",
    "rs_parity",
    "semi_infinite_expand",
    "smith_form",
    "split_to_generator",
    "validate_params",
    "__version__",
]
