import json
import random
from fractions import Fraction

import pytest

from quarticmoduli.degeneration import tangent_quartic
from quarticmoduli.field import GF, QQ, FieldScalar, ParamRing
from quarticmoduli.matrices import det, random_matrix
from quarticmoduli.poly import Form, MultiPoly
from quarticmoduli.strata import boundary_matrix
from quarticmoduli.verify import (
    ALL_VERIFIERS,
    FAIL,
    PASS,
    PASS_WITH_NOTE,
    PRINTED_MODULI_COEFFICIENTS,
    IdentityReport,
    _coefficient_of,
    _lift,
    _lifted_pencil,
    _specialize,
    run_all,
    verify_chart_minors,
    verify_cocycle,
    verify_fibre_determinant,
    verify_poincare_corollary,
    verify_reduction_chain,
    verify_tangent_quartic,
    verify_transition,
)


def test_all_default_verifiers_pass():
    reports = run_all()
    assert len(reports) == len(ALL_VERIFIERS)
    for report in reports:
        assert report.passed, report.render_text()


def test_transition_over_rationals():
    for value in (1, 2, -3, 7):
        report = verify_transition(QQ.scalar(value))
        assert report.status == PASS


def test_transition_random_prime_field():
    dom = GF(101)
    rng = random.Random(13)
    for _ in range(50):
        alpha = dom.scalar(rng.randrange(1, 101))
        assert verify_transition(alpha).status == PASS


def test_cocycle_many_seeds():
    for seed in range(10):
        assert verify_cocycle(seed).status == PASS


def test_reduction_chain_many_seeds():
    for seed in range(10):
        report = verify_reduction_chain(seed)
        assert report.status == PASS


def test_fibre_determinant_many_seeds():
    for seed in range(5):
        assert verify_fibre_determinant(seed).status == PASS


def test_tangent_quartic_many_seeds():
    for seed in range(3):
        assert verify_tangent_quartic(seed).status == PASS


def tangent_pencil(domain, seed):
    """A, B and the lifted 3x3 A + tB of verify_tangent_quartic, over the
    parameter ring in t."""
    rng = random.Random(seed)
    x0, x1, x2 = (MultiPoly.variable(domain, i) for i in range(3))
    w = x1 * domain.scalar(rng.randrange(1, 9)) + x2 * domain.scalar(-2)
    a = boundary_matrix(Form(x0, 1), Form(w, 1))
    b = random_matrix("res0", domain, rng=rng)
    ring = ParamRing(domain, ("t",))
    return a, b, ring, _lifted_pencil(a, b, ring)


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_tangent_pencil_determinant_builds_no_field_scalars(domain,
                                                           monkeypatch):
    """Exact count: det(A + tB) over the parameter ring adds and multiplies
    raw values, the int 0 that poly.dot adds into each new monomial
    included, so it constructs no FieldScalar; boxing that 0 built 33."""
    a, b, ring, pencil = tangent_pencil(domain, 4)
    built = []
    init = FieldScalar.__init__
    monkeypatch.setattr(FieldScalar, "__init__",
                        lambda *args: built.append(1) or init(*args))
    total = det(pencil)
    assert len(built) == 0
    ring.base.scalar(0)  # the counter does count
    assert len(built) == 1
    monkeypatch.undo()
    t_linear = _coefficient_of(total, ring, "t", 1, domain)
    assert t_linear == tangent_quartic(a, b).poly
    assert _coefficient_of(total, ring, "t", 0, domain) == \
        a.determinant().poly
    assert _coefficient_of(total, ring, "t", 3, domain) == \
        b.determinant().poly


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_specialize_inverts_lift(domain):
    rng = random.Random(5)
    ring = ParamRing(domain, ("a", "t"))
    values = {"a": domain.scalar(rng.randrange(1, 50)),
              "t": domain.scalar(Fraction(-3, 7))}
    for seed in range(3):
        f = random_matrix("res0", domain, seed=seed)[0, 0].poly
        lifted = _lift(f, ring)
        assert lifted.domain is ring
        assert _specialize(lifted, values, domain) == f
        # a coefficient t*a^2 + 1 specializes to its value at the point
        c = ring.variable("t") * ring.variable("a") ** 2 + 1
        want = values["t"] * values["a"] ** 2 + 1
        assert _specialize(lifted * c, values, domain) == f * want


def test_chart_minors_symbolic():
    report = verify_chart_minors(seed=0, samples=50)
    assert report.status == PASS
    minors = report.computed["minors"]
    assert "(2*alpha - a)*x0*x1" in minors[0]
    assert minors[1] == "x0*x1 + alpha*x1^2 + beta*x1*x2 + d*x2^2"


def test_poincare_corollary_notes_the_discrepancy():
    report = verify_poincare_corollary()
    assert report.status == PASS_WITH_NOTE
    assert report.passed
    assert "q^6" in report.note
    assert tuple(report.expected["printed_coefficients"]) == \
        PRINTED_MODULI_COEFFICIENTS


def test_report_serialization_round_trips_through_json():
    report = verify_transition(QQ.scalar(2))
    data = report.to_json_dict()
    text = json.dumps(data)
    again = json.loads(text)
    assert again["name"] == "transition"
    assert again["status"] == PASS
    assert "det g" in again["anchor"]


def test_report_render_text_shows_failures():
    report = IdentityReport(
        "demo", FAIL, computed="1", expected="2", anchor="1 = 2"
    )
    assert not report.passed
    text = report.render_text()
    assert "computed: 1" in text
    assert "expected: 2" in text
