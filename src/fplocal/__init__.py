"""Exact commutative algebra over prime fields: sparse polynomials,
Groebner bases, syzygies and resolutions, Frobenius decompositions,
Koszul cohomology, and local-cohomology torsion checks.

All arithmetic is exact in F_p; there is no floating point anywhere in
the math path and every check is a zero-tolerance identity.
"""

from .config import DEFAULT_LIMITS, EngineLimits
from .errors import (
    CancelledError,
    HypothesisViolatedError,
    NonHomogeneousError,
    ParseError,
    ResourceLimitError,
    RingMismatchError,
)
from .frobenius import (
    FrobComponents,
    FrobeniusLevel,
    bracket_power,
    component_at,
    frobenius_decompose,
    frobenius_power,
    level_for_degree,
    psi_map,
    td_roundtrip_check,
)
from .groebner import (
    Ideal,
    exact_div,
    ideal_quotient,
    ideal_quotient_ideal,
    ideals_equal,
    intersect,
    maximal_ideal,
    normal_form,
    saturation,
    verify_confluence,
)
from .koszul import (
    KoszulComplex,
    VanishingCertificate,
    build_koszul,
    koszul_cohomology,
    phi_chain_map,
    verify_prop_van,
)
from .localcoh import (
    CheckReport,
    InstanceSpec,
    choose_level,
    degree_criterion,
    find_regular_linear_form,
    pd_bound_check,
    question_q_check,
    top_lc_vanishing_certificate,
)
from .modres import (
    ModulePresentation,
    PolyMatrix,
    Resolution,
    TorsionData,
    depth,
    finite_length_data,
    free_resolution,
    kernel_of_map,
    minimize_resolution,
    module_gb,
    module_h0m,
    module_normal_form,
    projective_dimension,
    quotient_presentation,
    subquotient_presentation,
    syzygies,
)
from .polycore import (
    MINUS_INF,
    FpElem,
    Polynomial,
    PolyRing,
    RationalPoint,
    parse_poly,
)

__version__ = "0.1.0"
