"""The package's exports and its documented entry points."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quarticmoduli

ROOT = Path(__file__).resolve().parent.parent

# every name the package exports, by the module that defines it
EXPORTS = {
    "betti": [
        "PoincarePoly", "expression_poincare", "is_palindromic",
        "poincare_B", "poincare_H", "poincare_M",
        "poincare_open_stratum_closure", "poincare_projective",
    ],
    "degeneration": [
        "BlowupChartPoint", "ChartError", "DeformationInstance", "FlagDatum",
        "TwistedIdealResolution", "build_twisted_ideal_resolution",
        "deformation_reduction_trace", "family_limit", "fitting_support",
        "flag_limit", "load_family", "make_blowup_chart_point",
        "tangent_quartic",
    ],
    "field": [
        "GF", "QQ", "FieldMismatchError", "FieldScalar", "InvariantError",
        "ParamRing", "ParamScalar", "PrimeField", "Rationals",
    ],
    "gcd": [
        "LineSearchResult", "binary_roots", "common_linear_factor",
        "gcd_fold", "line_intersection", "lines_dividing_all",
        "multivariate_gcd",
    ],
    "matrices": [
        "DegreeError", "FormMatrix", "GradedAutomorphism", "act",
        "is_stable_kronecker", "load_matrix", "make_matrix",
        "random_graded_automorphism", "random_matrix",
    ],
    "poly": [
        "BinaryForm", "Form", "MultiPoly", "ParseError", "linear_rank",
        "monomials_of_degree", "parse_form", "parse_poly",
    ],
    "strata": [
        "BOUNDARY", "INVALID", "M00", "M01", "M10", "M11", "NOT_STABLE",
        "StratumReport", "ZPoints", "classify_res0", "classify_res1",
        "extract_Z_points",
    ],
    "verify": [
        "IdentityReport", "run_all", "verify_chart_minors", "verify_cocycle",
        "verify_fibre_determinant", "verify_poincare_corollary",
        "verify_reduction_chain", "verify_tangent_quartic",
        "verify_transition",
    ],
}

NAMES = [name for names in EXPORTS.values() for name in names] \
    + ["__version__"]


def test_exports_are_the_defining_modules_objects():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"quarticmoduli.{module_name}")
        assert getattr(quarticmoduli, module_name) is module
        for name in names:
            namespace = {}
            exec(f"from quarticmoduli import {name}", namespace)
            assert namespace[name] is getattr(module, name), name
    namespace = {}
    exec("from quarticmoduli import __version__", namespace)
    assert namespace["__version__"] == "0.1.0"


def test_export_lists_name_every_export():
    assert sorted(quarticmoduli.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(quarticmoduli))
    namespace = {}
    exec("from quarticmoduli import *", namespace)
    assert set(NAMES) <= set(namespace)


def test_unknown_export_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        quarticmoduli.no_such_export
    with pytest.raises(ImportError, match="'no_such_export'"):
        exec("from quarticmoduli import no_such_export", {})


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(path):
    # the demos are the documented `from quarticmoduli import ...` entry
    # points, each run as a reader would, in a fresh interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
