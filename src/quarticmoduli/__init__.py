"""Exact symbolic toolkit for the moduli of one-dimensional sheaves on
plane quartics.

Everything computes over exact coefficient domains (arbitrary-precision
rationals or odd prime fields); there is no floating point anywhere.
"""

from .betti import (
    BlowUpSubstitute,
    Literal,
    PoincarePoly,
    Product,
    ProjBundle,
    ProjectiveSpace,
    is_palindromic,
    poincare_M,
    poincare_open_stratum_closure,
    poincare_projective,
)
from .degeneration import (
    BlowupChartPoint,
    ChartError,
    DeformationInstance,
    FlagDatum,
    TwistedIdealResolution,
    build_twisted_ideal_resolution,
    deformation_normal_form,
    deformation_reduction_trace,
    family_limit,
    fitting_support,
    flag_limit,
    load_family,
    make_blowup_chart_point,
    tangent_quartic,
)
from .field import (
    GF,
    QQ,
    FieldMismatchError,
    FieldScalar,
    InvariantError,
    ParamRing,
    ParamScalar,
    PrimeField,
    Rationals,
)
from .gcd import (
    LineSearchResult,
    binary_roots,
    common_linear_factor,
    gcd_fold,
    line_intersection,
    lines_dividing_all,
    multivariate_gcd,
)
from .matrices import (
    DegreeError,
    FormMatrix,
    GradedAutomorphism,
    act,
    apply_ops,
    identity_automorphism,
    is_stable_kronecker,
    load_matrix,
    make_matrix,
    random_graded_automorphism,
    random_matrix,
)
from .poly import (
    BinaryForm,
    Form,
    MultiPoly,
    ParseError,
    linear_rank,
    monomials_of_degree,
    parse_form,
    parse_poly,
)
from .strata import (
    BOUNDARY,
    INVALID,
    M00,
    M01,
    M10,
    M11,
    NOT_STABLE,
    StratumReport,
    ZPoints,
    classify_res0,
    classify_res1,
    extension_data,
    extract_Z_points,
)
from .verify import (
    IdentityReport,
    run_all,
    verify_chart_minors,
    verify_cocycle,
    verify_fibre_determinant,
    verify_poincare_corollary,
    verify_reduction_chain,
    verify_tangent_quartic,
    verify_transition,
)

__version__ = "0.1.0"
