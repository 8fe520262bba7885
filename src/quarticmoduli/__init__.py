"""Exact symbolic toolkit for the moduli of one-dimensional sheaves on
plane quartics.

Everything computes over exact coefficient domains (arbitrary-precision
rationals or odd prime fields); there is no floating point anywhere.

The exports below resolve on first use (PEP 562): ``import quarticmoduli``
loads no submodule, and ``from quarticmoduli import classify_res0`` loads
only ``strata`` and the modules it imports.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "betti": (
        "PoincarePoly", "expression_poincare", "is_palindromic",
        "poincare_B", "poincare_H", "poincare_M",
        "poincare_open_stratum_closure", "poincare_projective",
    ),
    "degeneration": (
        "BlowupChartPoint", "ChartError", "DeformationInstance", "FlagDatum",
        "TwistedIdealResolution", "build_twisted_ideal_resolution",
        "deformation_reduction_trace", "family_limit", "fitting_support",
        "flag_limit", "load_family", "make_blowup_chart_point",
        "tangent_quartic",
    ),
    "field": (
        "GF", "QQ", "FieldMismatchError", "FieldScalar", "InvariantError",
        "ParamRing", "ParamScalar", "PrimeField", "Rationals",
    ),
    "gcd": (
        "LineSearchResult", "binary_roots", "common_linear_factor",
        "gcd_fold", "line_intersection", "lines_dividing_all",
        "multivariate_gcd",
    ),
    "matrices": (
        "DegreeError", "FormMatrix", "GradedAutomorphism", "act",
        "is_stable_kronecker", "load_matrix", "make_matrix",
        "random_graded_automorphism", "random_matrix",
    ),
    "poly": (
        "BinaryForm", "Form", "MultiPoly", "ParseError", "linear_rank",
        "monomials_of_degree", "parse_form", "parse_poly",
    ),
    "strata": (
        "BOUNDARY", "INVALID", "M00", "M01", "M10", "M11", "NOT_STABLE",
        "StratumReport", "ZPoints", "classify_res0", "classify_res1",
        "extract_Z_points",
    ),
    "verify": (
        "IdentityReport", "run_all", "verify_chart_minors", "verify_cocycle",
        "verify_fibre_determinant", "verify_poincare_corollary",
        "verify_reduction_chain", "verify_tangent_quartic",
        "verify_transition",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    """Import the module that owns an export, or a submodule, on first
    access, and keep the value as a module global."""
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        module = importlib.import_module(f"{__name__}.{_OWNER[name]}")
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
