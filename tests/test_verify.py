import json
import random
from itertools import combinations_with_replacement, product

import pytest

from quarticmoduli import degeneration, verify
from quarticmoduli.degeneration import tangent_quartic
from quarticmoduli.field import (GF, QQ, FieldScalar, InvariantError,
                                 ParamRing, ParamScalar)
from quarticmoduli.matrices import FormMatrix, random_matrix
from quarticmoduli.poly import Form, MultiPoly
from quarticmoduli.strata import boundary_matrix
from quarticmoduli.verify import (
    ALL_VERIFIERS,
    FAIL,
    PASS,
    PASS_WITH_NOTE,
    _CHART_CODES,
    _CHART_WEIGHTS,
    PRINTED_MODULI_COEFFICIENTS,
    IdentityReport,
    _decode,
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


def lift(poly, ring, at=None):
    """poly over the base field, as a polynomial over the parameter ring,
    each coefficient placed at the parameter monomial of exponent at (1 by
    default)."""
    at = at or (0,) * len(ring.names)
    return MultiPoly.from_raw(ring, {
        e: ParamScalar.from_raw(ring, {at: c}) for e, c in poly.raw.items()})


def lifted_pencil(a, b, ring):
    """The matrix A + tB over the parameter ring in t, each coefficient of
    B placed at t^1."""
    t = tuple(int(n == "t") for n in ring.names)
    return FormMatrix(a.src_degrees, a.tgt_degrees, [
        [lift(a[i, j].poly, ring) + lift(b[i, j].poly, ring, t)
         for j in range(3)] for i in range(3)])


def coefficient_of(poly, ring, name, power, base):
    """The coefficient of name^power, as a polynomial over the base."""
    key = tuple(power if n == name else 0 for n in ring.names)
    return MultiPoly.from_raw(base, {e: c.raw.get(key, 0)
                                     for e, c in poly.raw.items()})


ODD_CHARACTERISTICS = [QQ, GF(3), GF(5), GF(101), GF(2**61 - 1)]


@pytest.mark.parametrize("domain", ODD_CHARACTERISTICS, ids=repr)
def test_tangent_quartic_in_every_odd_characteristic(domain, monkeypatch):
    """The t-linear coefficient from det(A + B), det(A - B) and det B
    needs only 2 invertible: the report passes over QQ and GF(3) alike,
    agrees with [t^1] det(A + tB) over the parameter ring in t, and still
    fails when the row-replaced sum is wrong."""
    for seed in range(5):
        assert verify_tangent_quartic(seed, domain=domain).status == PASS

    def symbolic(a, b):
        ring = ParamRing(a.domain, ("t",))
        pencil = lifted_pencil(a, b, ring).determinant()
        return Form(coefficient_of(pencil, ring, "t", 1, a.domain), 4)

    # the verifier compares its t-linear coefficient with whatever
    # degeneration.tangent_quartic returns for its own A and B
    monkeypatch.setattr(degeneration, "tangent_quartic", symbolic)
    for seed in range(5):
        report = verify_tangent_quartic(seed, domain=domain)
        assert report.status == PASS, report.render_text()

    x0 = MultiPoly.variable(domain, 0)
    monkeypatch.setattr(degeneration, "tangent_quartic", lambda a, b: Form(
        tangent_quartic(a, b).poly + x0 ** 4, 4))
    report = verify_tangent_quartic(0, domain=domain)
    assert report.status == FAIL
    assert not report.computed["t_linear_equals_row_sum"]
    assert not report.computed["equals_closed_form"]


def tangent_pencil(domain, seed):
    """A, B and the lifted A + tB of verify_tangent_quartic, over the
    parameter ring in t."""
    rng = random.Random(seed)
    x0, x1, x2 = (MultiPoly.variable(domain, i) for i in range(3))
    w = x1 * domain.scalar(rng.randrange(1, 9)) + x2 * domain.scalar(-2)
    a = boundary_matrix(Form(x0, 1), Form(w, 1))
    b = random_matrix("res0", domain, rng=rng)
    ring = ParamRing(domain, ("t",))
    return a, b, ring, lifted_pencil(a, b, ring)


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
    total = pencil.determinant()
    assert len(built) == 0
    ring.base.scalar(0)  # the counter does count
    assert len(built) == 1
    monkeypatch.undo()
    t_linear = coefficient_of(total, ring, "t", 1, domain)
    assert t_linear == tangent_quartic(a, b).poly
    assert coefficient_of(total, ring, "t", 0, domain) == \
        a.determinant().poly
    assert coefficient_of(total, ring, "t", 3, domain) == \
        b.determinant().poly


BOUND = 2**15 - 1  # the largest coefficient that one balanced digit holds


def encode(terms):
    """The code of a parameter polynomial {exponent tuple: int}: its value
    with each parameter at 2^(16*w) for its weight w."""
    return sum(c * 2 ** (16 * sum(k * w for k, w in zip(e, _CHART_WEIGHTS)))
               for e, c in terms.items())


def test_the_28_chart_codes_are_distinct():
    """{0} and the weights form a Golomb ruler, so the monomials of total
    degree at most 2 in the six parameters have 28 distinct codes."""
    exponents = {tuple(factors.count(k) for k in range(6))
                 for n in range(3)
                 for factors in combinations_with_replacement(range(6), n)}
    codes = {sum(k * w for k, w in zip(e, _CHART_WEIGHTS)): e
             for e in exponents}
    assert len(exponents) == len(codes) == 28
    assert max(codes) == 50
    assert _CHART_CODES == codes


def test_decode_inverts_encode_up_to_the_coefficient_bound():
    exponents = list(_CHART_CODES.values())
    for e in exponents:
        for c in (BOUND, -BOUND, 1, -1):
            assert _decode(encode({e: c})) == {e: c}
    rng = random.Random(3)
    for _ in range(20):  # all 28 monomials at once
        terms = {e: rng.choice((BOUND, -BOUND, rng.randint(-BOUND, BOUND)))
                 for e in exponents}
        terms = {e: c for e, c in terms.items() if c}
        assert _decode(encode(terms)) == terms
    assert _decode(0) == {}


def test_a_digit_off_the_code_points_is_refused():
    off = [place for place in range(56) if place not in _CHART_CODES]
    assert len(off) == 56 - 28
    inside = encode({(1, 0, 0, 0, 1, 0): -3, (0,) * 6: 2})
    for place in off:
        for digit in (1, -1, BOUND, -BOUND):
            for code in (digit << 16 * place,
                         inside + (digit << 16 * place)):
                with pytest.raises(InvariantError, match=f"place {place} "):
                    _decode(code)


def chart_matrix_at(point):
    """The chart Kronecker matrix over QQ at a point (alpha, beta, a, b,
    c, d) of integers."""
    al, be, a, b, c, d = point
    x0, x1, x2 = (Form(MultiPoly.variable(QQ, i), 1) for i in range(3))
    xb = x0 + x1 * al + x2 * be
    return FormMatrix((2, 2), (1, 1, 1), [
        [-x2, x1 * c, xb],
        [x1, -xb + x1 * a + x2 * b, x2 * d],
    ])


def test_decoded_minors_specialize_to_the_minors_at_the_point():
    """The oracle: at random integer points the decoded minors give the
    maximal minors of the chart matrix built at that point."""
    minors, _ = verify._chart_minors()
    decoded = [{k: _decode(c) for k, c in m.raw.items()} for m in minors]
    rng = random.Random(11)
    for _ in range(20):
        point = [rng.randint(-50, 50) for _ in range(6)]
        special = [_specialize(m, point) for m in decoded]
        assert special == chart_matrix_at(point).maximal_minors()
        assert all(s.degree == 2 for s in special)


def test_one_changed_printed_coefficient_fails(monkeypatch):
    """Each coefficient of each printed quadric, changed by one at each
    parameter monomial, gives that minor the sign 0 and the report FAIL;
    the computed minors do not move."""
    minors, printed = verify._chart_minors()
    want = verify_chart_minors(seed=0, samples=0).computed["minors"]
    keys = sorted({k for p in printed for k in p.raw})
    for which in range(3):
        for i, (key, e) in enumerate(product(keys, _CHART_CODES.values())):
            bump = Form(MultiPoly.from_raw(QQ, {key: encode(
                {e: (-1) ** i})}), 2)
            changed = list(printed)
            changed[which] = printed[which] + bump
            monkeypatch.setattr(verify, "_chart_minors",
                                lambda: (minors, changed))
            report = verify_chart_minors(seed=0, samples=0)
            assert report.status == FAIL
            signs = [1, -1, 1]
            signs[which] = 0
            assert report.computed["signs"] == signs
            assert report.computed["minors"] == want
    report = verify_chart_minors(seed=0, samples=2)
    assert report.status == FAIL and report.computed["samples_ok"]


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
