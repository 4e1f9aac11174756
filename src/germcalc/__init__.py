"""Exact computer algebra for germs of formal power series.

Truncated division with remainder supported off a staircase, jet spaces
of finitely generated ideals, finite-order equivalence of families and
sets of ideals under formal coordinate changes, conjugacy of self-maps,
pushforward of vector fields, and a machine-checked construction of two
curve sets equivalent to every finite order without a common formal
normalization.
"""

from .curves import (
    CurveSetReport,
    ObstructionReport,
    ShiftSequence,
    build_shift_sequence,
    curve,
    curve_ideal,
    membership_horizon,
    shift_map,
    tangent_coefficient,
    verify_finite_order_equivalence,
    verify_tangent_obstruction,
)
from .division import DivisionResult, formal_division, reduce_mod_ideal
from .dynamics import (
    DynamicsReport,
    VectorField,
    conjugate,
    is_order_k_conjugacy,
    is_order_k_field_equivalence,
    pushforward_field,
)
from .equivalence import (
    EquivalenceReport,
    GermFamily,
    equivalence_horizon,
    is_order_k_equivalence,
    jet_coset_membership,
    pullback,
)
from .errors import (
    CrossCheckError,
    DimensionError,
    GermcalcError,
    InversionError,
    LimitError,
    ParseError,
    PrecisionError,
)
from .ideals import (
    HorizonReport,
    IdealPresentation,
    JetSpace,
    jet_membership,
    membership_up_to,
)
from .monomial import (
    MultiIndex,
    Staircase,
    chain_stabilization,
    compare,
    monomials_up_to,
    vertex_extraction,
)
from .scalars import GaussianRational, I, as_gaussian, coerce_scalar
from .series import (
    FormalMap,
    FormalSeries,
    compose,
    realify,
    realify_map,
)

__version__ = "0.1.0"

__all__ = [
    "CrossCheckError",
    "CurveSetReport",
    "DimensionError",
    "DivisionResult",
    "DynamicsReport",
    "EquivalenceReport",
    "FormalMap",
    "FormalSeries",
    "GaussianRational",
    "GermFamily",
    "GermcalcError",
    "HorizonReport",
    "I",
    "IdealPresentation",
    "InversionError",
    "JetSpace",
    "LimitError",
    "MultiIndex",
    "ObstructionReport",
    "ParseError",
    "PrecisionError",
    "ShiftSequence",
    "Staircase",
    "VectorField",
    "as_gaussian",
    "build_shift_sequence",
    "chain_stabilization",
    "coerce_scalar",
    "compare",
    "compose",
    "conjugate",
    "curve",
    "curve_ideal",
    "equivalence_horizon",
    "formal_division",
    "is_order_k_conjugacy",
    "is_order_k_equivalence",
    "is_order_k_field_equivalence",
    "jet_coset_membership",
    "jet_membership",
    "membership_horizon",
    "membership_up_to",
    "monomials_up_to",
    "pullback",
    "pushforward_field",
    "realify",
    "realify_map",
    "reduce_mod_ideal",
    "shift_map",
    "tangent_coefficient",
    "vertex_extraction",
    "verify_finite_order_equivalence",
    "verify_tangent_obstruction",
]
