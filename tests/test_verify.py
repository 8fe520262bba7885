import json
import random

from quarticmoduli.field import GF, QQ
from quarticmoduli.verify import (
    ALL_VERIFIERS,
    FAIL,
    PASS,
    PASS_WITH_NOTE,
    PRINTED_MODULI_COEFFICIENTS,
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
