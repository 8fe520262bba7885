import random
import time
from fractions import Fraction as F

import pytest

from quarticmoduli import gcd
from quarticmoduli.degeneration import (
    ChartError,
    DeformationInstance,
    FlagDatum,
    build_twisted_ideal_resolution,
    deformation_normal_form,
    deformation_reduction_trace,
    family_from_json_dict,
    family_limit,
    fitting_support,
    make_blowup_chart_point,
    tangent_quartic,
)
from quarticmoduli.field import GF, QQ, FieldScalar
from quarticmoduli.matrices import FormMatrix, random_form
from quarticmoduli.poly import (
    Form,
    MultiPoly,
    ParseError,
    PowerDegreeError,
    parse_form,
    parse_poly,
)
from quarticmoduli.strata import M00, classify_res0


def chart_point(**overrides):
    kwargs = dict(
        domain=QQ,
        alpha=F(0),
        beta=F(0),
        gamma=F(0),
        delta=F(1),
        q0_text="x1^2",
        q1_text="0",
        q2_text="0",
        ab_cd=(F(1), F(0), F(0), F(0)),
        chart="a",
        t=F(1),
    )
    kwargs.update(overrides)
    return make_blowup_chart_point(**kwargs)


def test_family_limit_example():
    pt = chart_point()
    quartic, point = family_limit(pt)
    assert quartic.poly == parse_poly("x0^2*x1^2 - x1^2*x2^2")
    # p = Z(x0, x2), i.e. (0, 1, 0) projectively
    assert not parse_form("x0").evaluate(point)
    assert not parse_form("x2").evaluate(point)
    assert not quartic.evaluate(point)


def test_chart_point_refuses_huge_power_at_once():
    start = time.monotonic()
    with pytest.raises(ValueError, match="got a power of degree 99999999"):
        chart_point(q0_text="x0^99999999")
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("name, text, message", [
    ("q0", "x0^99999999",
     "q0: degree mismatch: expected 2, got a power of degree 99999999"),
    ("q1", "x0*x1*x2", "q1: degree mismatch: expected 2, got 3"),
    ("q2", "x0 + x1^2", "q2: inhomogeneous polynomial: 'x0 + x1^2'"),
])
def test_chart_point_names_the_refused_q_text(name, text, message):
    expected = PowerDegreeError if "power" in message else ParseError
    with pytest.raises(expected) as info:
        chart_point(**{f"{name}_text": text})
    assert str(info.value) == message


def test_family_limit_degenerate_direction_rejected():
    # all-zero direction: the chart coordinate cannot be 1
    with pytest.raises(ChartError):
        chart_point(q0_text="0", ab_cd=(F(0), F(0), F(0), F(0)),
                    chart="a")


def test_chart_coefficient_must_be_one():
    with pytest.raises(ChartError):
        chart_point(ab_cd=(F(2), F(0), F(0), F(0)), chart="a")
    # q-coordinate charts work too
    pt = chart_point(chart="q0[0,2,0]")
    assert pt.chart == "q0[0,2,0]"


def test_total_classifies_as_open_stratum():
    pt = chart_point()
    for t in (F(1), F(1, 2), F(3)):
        report = classify_res0(pt.total(t))
        assert report.label == M00


def test_tangent_quartic_equals_t_linear_coefficient():
    pt = chart_point()
    f = tangent_quartic(pt.a, pt.b)
    # interpolate: det(A + tB) = f*t + (higher powers)
    samples = [F(1), F(2), F(3), F(4)]
    dets = [classify_res0(pt.total(t)).quartic.poly for t in samples]
    # det(A+tB) is cubic in t here; Lagrange-extract the t coefficient
    # via finite differences on 4 points with det(A+0B) = 0
    # c1*t + c2*t^2 + c3*t^3 interpolated at t=1..4
    # solve the 3x3 Vandermonde exactly
    from itertools import product
    rows = [[QQ.scalar(t ** k) for k in (1, 2, 3)] for t in (1, 2, 3)]
    # Gaussian elimination on polynomial-valued right-hand side
    rhs = list(dets[:3])
    for col in range(3):
        piv = next(i for i in range(col, 3) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = rows[col][col].inverse()
        rows[col] = [v * inv for v in rows[col]]
        rhs[col] = rhs[col] * inv
        for i in range(3):
            if i != col and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
                rhs[i] = rhs[i] - rhs[col] * factor
    assert rhs[0] == f.poly


def test_tangent_quartic_linear_in_direction():
    dom = GF(101)
    rng = random.Random(2)
    from quarticmoduli.matrices import random_matrix

    pt = chart_point()
    a = pt.a
    # rebuild the base over F_101
    a = FormMatrix(
        a.src_degrees,
        a.tgt_degrees,
        [
            [parse_form(e.serialize(), domain=dom) for e in a.row(i)]
            for i in range(3)
        ],
    )
    b1 = random_matrix("res0", dom, rng=rng)
    b2 = random_matrix("res0", dom, rng=rng)
    lhs = tangent_quartic(a, b1 + b2).poly
    rhs = tangent_quartic(a, b1).poly + tangent_quartic(a, b2).poly
    assert lhs == rhs


def _instance(domain, rng, t):
    xbar0 = Form(
        MultiPoly.variable(domain, 0) + random_form(domain, 1, rng).poly, 1
    )
    w = parse_form("2*x1 + 5*x2", domain=domain)
    q = [random_form(domain, 2, rng) for _ in range(3)]
    y = [random_form(domain, 1, rng) for _ in range(3)]
    z = [random_form(domain, 1, rng) for _ in range(3)]
    return DeformationInstance(domain, xbar0, w, q, y, z, t)


def test_reduction_chain_reaches_normal_form():
    dom = GF(101)
    rng = random.Random(7)
    inst = _instance(dom, rng, 37)
    final = deformation_normal_form(inst)
    trace = deformation_reduction_trace(inst)
    assert len(trace) == 7
    expected = inst.expected_trace()
    for got, want in zip(trace[1:], expected):
        assert got == want
    assert final == inst.expected_final()


def test_reduction_chain_trivial_instance():
    zero1 = Form.zero(QQ, 1)
    zero2 = Form.zero(QQ, 2)
    inst = DeformationInstance(
        QQ,
        parse_form("x0"),
        parse_form("x1"),
        [zero2] * 3,
        [zero1] * 3,
        [zero1] * 3,
        F(1),
    )
    final = deformation_normal_form(inst)
    assert final[0, 0].poly == parse_poly("x0")
    assert final[1, 0].poly == parse_poly("x1")
    assert final[4, 0].poly == parse_poly("1")


def test_reduction_rejects_zero_t():
    with pytest.raises(ChartError):
        DeformationInstance(
            QQ,
            parse_form("x0"),
            parse_form("x1"),
            [Form.zero(QQ, 2)] * 3,
            [Form.zero(QQ, 1)] * 3,
            [Form.zero(QQ, 1)] * 3,
            F(0),
        )


def test_twisted_ideal_round_trip():
    rng = random.Random(23)
    dom = GF(101)
    for _ in range(20):
        l = Form(
            MultiPoly.variable(dom, 0) + random_form(dom, 1, rng).poly, 1
        )
        g = random_form(dom, 3, rng)
        w = random_form(dom, 1, rng)
        h = random_form(dom, 3, rng)
        f_poly = l.poly * h.poly - w.poly * g.poly
        if not f_poly or not g:
            continue
        f = Form(f_poly, 4)
        res = build_twisted_ideal_resolution(f, l, g)
        assert l.poly * res.h.poly - res.w.poly * g.poly == f.poly
        assert res.matrix().determinant().poly == f.poly


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_twisted_ideal_resolution_builds_no_field_scalars(domain,
                                                         monkeypatch):
    """Exact count: the linear system is read and solved on raw values, and
    each of the 13 monomial columns unboxes its coefficient 1 with no
    FieldScalar; converting it through Domain.scalar built 13."""
    l, g, w, h = (parse_form(text, domain=domain) for text in
                  ("x0 + 2*x1", "x1^3 + x0*x2^2 - x2^3", "x2 - x1",
                   "x0^3 + 3*x1*x2^2"))
    f = Form(l.poly * h.poly - w.poly * g.poly, 4)
    built = []
    init = FieldScalar.__init__
    monkeypatch.setattr(FieldScalar, "__init__",
                        lambda *args: built.append(1) or init(*args))
    res = build_twisted_ideal_resolution(f, l, g)
    assert len(built) == 0
    domain.scalar(7)  # the counter does count
    assert len(built) == 1
    monkeypatch.undo()
    assert res.semistable
    assert l.poly * res.h.poly - res.w.poly * g.poly == f.poly


def test_twisted_ideal_line_in_curve_flagged():
    l = parse_form("x0")
    g = parse_form("x1^3 + x2^3")
    f = Form(l.poly * parse_poly("x0^3 + x1*x2^2"), 4)
    res = build_twisted_ideal_resolution(f, l, g)
    assert not res.semistable
    assert not res.w
    assert l.poly * res.h.poly == f.poly


def test_twisted_ideal_membership_required():
    with pytest.raises(ValueError):
        build_twisted_ideal_resolution(
            parse_form("x1^4"), parse_form("x0"), parse_form("x2^3")
        )


def test_flag_limit_example():
    f = Form(
        parse_poly("x1*(x1 - x2)*(x1 + x2)*(x1 - 2*x2) + x0*x2^3"), 4
    )
    datum = FlagDatum(
        f,
        parse_form("x0"),
        [(F(0), F(1)), (F(1), F(1)), (F(-1), F(1))],
    )
    p = flag_point = None
    from quarticmoduli.degeneration import flag_limit

    p = flag_limit(datum)
    # residual root x1 = 2 x2, i.e. the point (0, 2, 1) up to scale
    assert not parse_form("x0").evaluate(p)
    assert not parse_form("x1 - 2*x2").evaluate(p)
    assert not f.evaluate(p)


def test_flag_limit_multiplicity():
    from quarticmoduli.degeneration import flag_limit

    # restriction (x1 - x2)^4; Z is the same root three times
    f = Form(parse_poly("(x1 - x2)^4 + x0*x2^3"), 4)
    datum = FlagDatum(f, parse_form("x0"), [(F(1), F(1))] * 3)
    p = flag_limit(datum)
    assert not parse_form("x1 - x2").evaluate(p)


def test_flag_limit_line_in_curve_rejected():
    from quarticmoduli.degeneration import flag_limit

    f = Form(parse_poly("x0") * parse_poly("x1^3"), 4)
    datum = FlagDatum(f, parse_form("x0"), [(F(0), F(1))] * 3)
    with pytest.raises(ValueError):
        flag_limit(datum)


def test_flag_limit_roots_must_divide():
    from quarticmoduli.degeneration import flag_limit

    f = Form(parse_poly("x1^4 + x0*x2^3"), 4)
    datum = FlagDatum(
        f, parse_form("x0"), [(F(1), F(1)), (F(0), F(1)), (F(0), F(1))]
    )
    with pytest.raises(ValueError):
        flag_limit(datum)


def test_binary_exact_div():
    """A binary form divides by the linear form t0*s - s0*t of a root
    [s0:t0] as a polynomial in s = x1, t = x2."""
    f = parse_form("x1^2 - x2^2").restrict_to_line(parse_form("x0"))
    q = f.poly.exact_div(parse_poly("x1 - x2"))  # the root [1:1]
    assert q.total_degree() == 1
    with pytest.raises(ValueError):
        f.poly.exact_div(parse_poly("x1 - 2*x2"))  # the root [2:1]


def deformation_case(dom, rng):
    """A 5x4 deformation matrix and its expected support determinant."""
    xbar0 = Form(
        MultiPoly.variable(dom, 0) + random_form(dom, 1, rng).poly, 1
    )
    w = random_form(dom, 1, rng)
    p = [random_form(dom, 2, rng) for _ in range(3)]
    q = [random_form(dom, 2, rng) for _ in range(3)]
    x = [MultiPoly.variable(dom, i) for i in range(3)]
    m = FormMatrix(
        (3, 3, 2, 2, 2),
        (2, 1, 1, 1),
        [
            [xbar0, p[0], p[1], p[2]],
            [w, q[0], q[1], q[2]],
            [Form.zero(dom, 0), Form(-x[2], 1), Form.zero(dom, 1),
             xbar0],
            [Form.zero(dom, 0), Form(x[1], 1), Form(-xbar0.poly, 1),
             Form.zero(dom, 1)],
            [Form.zero(dom, 0), Form.zero(dom, 1), Form(x[2], 1),
             Form(-x[1], 1)],
        ],
    )
    # the bordered rows use xbar0 in place of x0, so the support
    # determinant does too
    g = xbar0.poly * p[0].poly + x[1] * p[1].poly + x[2] * p[2].poly
    h = xbar0.poly * q[0].poly + x[1] * q[1].poly + x[2] * q[2].poly
    return m, xbar0.poly * h - w.poly * g


def test_fitting_support_matches_resolution_determinant():
    rng = random.Random(31)
    dom = GF(101)
    for _ in range(10):
        m, expected = deformation_case(dom, rng)
        if not expected:
            continue
        support = fitting_support(m)
        assert support.poly == expected.normalized()


def test_fitting_support_work_counts(monkeypatch):
    """Exact counts: the support of a deformation matrix takes one GCD, of
    the first two quintic minors, in two row reductions: k = 5 finds no
    kernel vector and k = 4 finds the quartic.  The later minors are
    checked by exact division."""
    calls = {"gcd": 0, "row_reduce": 0}
    gcd_before = gcd.multivariate_gcd
    eliminate_before = gcd._eliminate

    def counting_gcd(a, b):
        calls["gcd"] += 1
        return gcd_before(a, b)

    def counting_eliminate(rows, p):
        calls["row_reduce"] += 1
        return eliminate_before(rows, p)

    monkeypatch.setattr(gcd, "multivariate_gcd", counting_gcd)
    monkeypatch.setattr(gcd, "_eliminate", counting_eliminate)
    rng = random.Random(31)
    dom = GF(101)
    for _ in range(10):
        m, expected = deformation_case(dom, rng)
        calls.update(gcd=0, row_reduce=0)
        assert fitting_support(m).poly == expected.normalized()
        assert calls == {"gcd": 1, "row_reduce": 2}


def test_fitting_support_rejects_rank_deficient():
    dom = QQ
    zero = [
        [Form.zero(dom, max(s - t, 0)) for t in (2, 1, 1, 1)]
        for s in (3, 3, 2, 2, 2)
    ]
    m = FormMatrix((3, 3, 2, 2, 2), (2, 1, 1, 1), zero)
    with pytest.raises(ValueError):
        fitting_support(m)


def test_family_json_round_trip():
    pt = chart_point()
    data = pt.to_json_dict(t_values=[F(1), F(1, 2)])
    again, t_values = family_from_json_dict(data, QQ)
    assert again.a == pt.a
    assert again.b == pt.b
    assert [t.value for t in t_values] == [1, F(1, 2)]
