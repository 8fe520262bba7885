import random
from fractions import Fraction

import pytest

from quarticmoduli import gcd
from quarticmoduli.field import GF, QQ, InvariantError
from quarticmoduli.gcd import (
    binary_roots,
    common_linear_factor,
    gcd_fold,
    line_intersection,
    lines_dividing_all,
    multivariate_gcd,
)
from quarticmoduli.matrices import random_form
from quarticmoduli.poly import (
    Form,
    MultiPoly,
    monomials_of_degree,
    parse_form,
    parse_poly,
)


def test_gcd_monomials():
    g = multivariate_gcd(parse_poly("x0*x1"), parse_poly("x0*x2"))
    assert g == parse_poly("x0")


def test_gcd_coprime():
    g = multivariate_gcd(parse_poly("x1^2"), parse_poly("x2^2"))
    assert g == parse_poly("1")


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_gcd_of_forms_is_a_form_of_its_degree(domain):
    # a divisor of a form is a form, so the GCD of forms is one whichever
    # path finds it: a kernel search, a constant, an input that divides
    # the others, or gcd(0, f)
    def forms(*texts):
        return [parse_form(t, domain=domain) for t in texts]

    line, conic = forms("x0 + 2*x1", "x1^2 - 3*x0*x2")
    cases = [
        multivariate_gcd(*forms("x0*x1 + 2*x1^2", "x0*x2 + 2*x1*x2")),
        multivariate_gcd(*forms("x1^2", "x2^3")),
        multivariate_gcd(Form.zero(domain, 2), conic * 5),
        gcd_fold([line * conic, line * line, line * conic * conic]),
        gcd_fold([line * 3, line * conic]),
        gcd_fold([Form.zero(domain, 3), conic, conic * line]),
        gcd_fold(forms("x1^2", "x2^2", "x0^2")),
    ]
    for g, expected in zip(cases, [line.normalized(), 1, conic.normalized(),
                                   line.normalized(), line.normalized(),
                                   conic.normalized(), 1]):
        assert isinstance(g, Form) and g.degree == g.total_degree()
        assert g == expected
    # polynomials that are not forms keep giving a MultiPoly
    g = multivariate_gcd(parse_poly("x0*x1 + x1", domain),
                         parse_poly("x0*x2 + x2", domain))
    assert type(g) is MultiPoly and g == parse_poly("x0 + 1", domain)


def test_gcd_fold_of_boundary_minors():
    # the three 2x2 minors of [[-x2, 0, x0], [x1, -x0, 0]]
    polys = [parse_poly(t) for t in ("x0*x2", "-x0*x1", "x0^2")]
    assert gcd_fold(polys) == parse_poly("x0")


def test_gcd_with_zero():
    f = parse_poly("2*x0^2")
    assert multivariate_gcd(parse_poly("0"), f) == parse_poly("x0^2")


def test_gcd_divides_both_inputs():
    dom = GF(101)
    rng = random.Random(11)
    for _ in range(20):
        a = random_form(dom, 2, rng).poly
        b = random_form(dom, 2, rng).poly
        g = random_form(dom, 1, rng).poly
        if not (a and b and g):
            continue
        d = multivariate_gcd(a * g, b * g)
        assert (a * g).try_exact_div(d) is not None
        assert (b * g).try_exact_div(d) is not None
        # the common factor g divides the gcd
        assert d.try_exact_div(g.normalized()) is not None or \
            d == g.normalized()


def test_gcd_symmetric_and_normalized():
    a = parse_poly("2*x0^2 + 2*x0*x1")
    b = parse_poly("3*x0*x2")
    g1 = multivariate_gcd(a, b)
    g2 = multivariate_gcd(b, a)
    assert g1 == g2 == parse_poly("x0")


def test_common_linear_factor_chart_examples():
    # minors of the chart matrix at a=b=c=d=0, alpha=beta=0
    minors = [parse_form(t) for t in ("x0^2", "-x0*x1", "x0*x2")]
    factor = common_linear_factor(minors)
    assert factor is not None and factor.poly == parse_poly("x0")
    # at c=1, a=b=d=0 the third minor breaks the common factor
    minors = [parse_form(t) for t in ("x0^2", "-x0*x1", "x0*x2 - x1^2")]
    assert common_linear_factor(minors) is None


def test_common_linear_factor_simple():
    minors = [parse_form("x1^2"), parse_form("x1*x2")]
    factor = common_linear_factor(minors)
    assert factor is not None and factor.poly == parse_poly("x1")


def test_common_linear_factor_empty_input_rejected():
    with pytest.raises(ValueError):
        common_linear_factor([])


def test_binary_roots_with_multiplicity():
    # restriction of x1^4 to any pencil through (0,0,1)
    f = parse_form("x1^4").restrict_to_line(parse_form("x2"))
    # x2 = 0 chart: parameters (s,t) = (x0,x1); x1^4 -> t^4
    roots, nonsplit = binary_roots(f)
    assert nonsplit == 0
    assert len(roots) == 4
    with pytest.raises(ValueError, match="x0"):
        binary_roots(parse_form("x0*x1"))


def test_binary_roots_over_qq_in_candidate_order():
    """The roots [r:1] over QQ come in the rational root theorem's candidate
    order, by |numerator|, then denominator, the positive first, whatever
    the order of the factors."""
    x1, x2 = (MultiPoly.variable(QQ, i) for i in (1, 2))
    f = x1**2 + x2**2  # no rational root
    for r in (Fraction(-2, 3), 2, Fraction(1, 2), -1, 0):
        f = f * (x1 - x2 * r)
    roots, nonsplit = binary_roots(Form(f, 7))
    assert [s.value for s, _ in roots] == [0, -1, Fraction(1, 2), 2,
                                           Fraction(-2, 3)]
    assert all(t == 1 for _, t in roots)
    assert nonsplit == 2
    # r before -r
    roots, _ = binary_roots(Form((x1 + x2 * 3) * (x1 - x2 * 3) * (x1 * 3 - x2),
                                 3))
    assert [s.value for s, _ in roots] == [Fraction(1, 3), 3, -3]


def test_rational_roots_lift_only_simple_rational_roots():
    # 5 is a square mod 101, but its square roots are not rational
    assert gcd._rational_roots(parse_poly("x1^2 - 5")) == []
    # 0 and 101 meet mod 101, so the roots are lifted at the next prime
    assert gcd._rational_roots(parse_poly("x1^3 - 101*x1^2")) == [0, 101]


def test_lines_dividing_all_through_point():
    quartic = parse_form("x0*x2^3")
    point = (QQ.zero, QQ.zero, QQ.one)
    result = lines_dividing_all([quartic], through=point)
    assert [l.poly for l in result.lines] == [parse_poly("x0")]
    assert result.nonsplit_degree == 0


def test_lines_dividing_all_needs_the_tangent_through_the_point():
    """x2 divides x2^4 and is its tangent line at (0 : 0 : 1), but does
    not pass through that point, so no line is found."""
    result = lines_dividing_all(
        [parse_form("x2^4")], through=(QQ.zero, QQ.zero, QQ.one)
    )
    assert result.lines == [] and result.nonsplit_degree == 0


def test_lines_dividing_all_multiplicity_four():
    result = lines_dividing_all(
        [parse_form("x1^4")], through=(QQ.zero, QQ.zero, QQ.one)
    )
    # multiplicity is encoded by repetition
    assert [l.poly for l in result.lines] == [parse_poly("x1")] * 4


def test_lines_dividing_all_nonsplit_over_qq():
    result = lines_dividing_all(
        [parse_form("x0^2 + x1^2")], through=(QQ.zero, QQ.zero, QQ.one)
    )
    assert result.lines == []
    assert result.nonsplit_degree == 2


@pytest.mark.parametrize("text", ["x0", "x0^2 + x1*x2"])
@pytest.mark.parametrize("point,domain", [
    ((0, 0, 0), QQ), ((QQ.zero,) * 3, QQ), ((101, 0, -202), GF(101))])
def test_lines_dividing_all_refuses_an_all_zero_point(text, point, domain):
    # the gradient of a line is nonzero everywhere, so the point must be
    # checked before the tangent-line test can answer
    with pytest.raises(ValueError, match="must not be all zero"):
        lines_dividing_all([parse_form(text, domain=domain)], through=point)


def test_lines_dividing_all_without_base_point():
    f = Form(parse_poly("x0") * parse_poly("x1 + x2"), 2)
    result = lines_dividing_all([f])
    found = {l.serialize() for l in result.lines}
    assert found == {"x0", "x1 + x2"}


def test_line_intersection():
    p = line_intersection(parse_form("x0"), parse_form("x1"))
    assert not parse_form("x0").evaluate(p)
    assert not parse_form("x1").evaluate(p)
    with pytest.raises(ValueError):
        line_intersection(parse_form("x0"), parse_form("2*x0"))
    # over GF(101) the raw cross product (2, 0, -1) is boxed to (2, 0, 100)
    dom = GF(101)
    l1, l2 = parse_form("x1", domain=dom), parse_form("x0 + 2*x2", domain=dom)
    p = line_intersection(l1, l2)
    assert all(c.domain == dom for c in p)
    assert [c.value for c in p] == [2, 0, 100]
    assert not l1.evaluate(p) and not l2.evaluate(p)
    # 51*(x0 + 2*x1) = 51*x0 + x1 mod 101: the raw cross product is
    # (0, 0, -101), dependent only mod 101
    with pytest.raises(ValueError, match="dependent"):
        line_intersection(parse_form("x0 + 2*x1", domain=dom),
                          parse_form("51*x0 + x1", domain=dom))


def test_gcd_over_prime_field_linear_factors():
    dom = GF(101)
    f = parse_poly("x0^2 - x1^2", domain=dom)
    g = parse_poly("x0^2 + 2*x0*x1 + x1^2", domain=dom)
    d = multivariate_gcd(f, g)
    assert d == parse_poly("x0 + x1", domain=dom)


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_common_linear_factor_of_singular_conics(domain):
    # (x0 + x1)*(x0 + x2) has the singular matrix [[2, 1, 1], [1, 0, 1],
    # [1, 1, 0]]; without the doubled diagonal it would pass for smooth
    conics = [parse_form(t, domain=domain) for t in
              ("(x0 + x1)*(x0 + x2)", "(x0 + x1)*x1", "(x0 + x1)*x2")]
    factor = common_linear_factor(conics)
    assert factor is not None
    assert factor.poly == parse_poly("x0 + x1", domain=domain)


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_common_linear_factor_of_one_smooth_conic(domain):
    conic = parse_form("x0^2 + x1*x2 - 3*x2^2", domain=domain)
    assert common_linear_factor([conic] * 3) is None


def plain_fold(polys):
    """The GCD folded pairwise over every input, with no shortcut."""
    total = polys[0].normalized()
    for p in polys[1:]:
        total = multivariate_gcd(total, p)
    return total


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_gcd_fold_matches_plain_fold(domain):
    rng = random.Random(5)

    def form(degree):
        terms = {}
        for m in monomials_of_degree(degree):
            if rng.random() < 0.5:
                terms[m] = domain.scalar(rng.randrange(-3, 4))
        return MultiPoly(domain, terms)

    zero, one = MultiPoly.zero(domain), MultiPoly.constant(domain, 3)
    for _ in range(40):
        base = form(rng.randrange(0, 3))
        pool = [zero, one, base, form(1), form(2)]
        pool += [base * form(rng.randrange(0, 3)) for _ in range(3)]
        polys = [rng.choice(pool) for _ in range(rng.randrange(1, 6))]
        assert gcd_fold(polys) == plain_fold(polys), polys
    # zeros first, then a constant that ends the fold
    polys = [zero, zero, base * 2, one, base]
    assert gcd_fold(polys) == plain_fold(polys) == MultiPoly.constant(domain, 1)


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_gcd_of_two_conics_work_counts(domain, monkeypatch):
    """Exact counts: a GCD of two conics decides k = 2 by one exact
    division and runs at most one row reduction, for k = 1, and at most
    one more division, by the cofactor it finds.  Searching k = 2 for a
    kernel vector too took up to two row reductions."""
    calls = {"row_reduce": 0, "divide": 0}
    eliminate_before = gcd._eliminate
    divide_before = MultiPoly.try_exact_div

    def counting_eliminate(rows, p):
        calls["row_reduce"] += 1
        return eliminate_before(rows, p)

    def counting_divide(self, divisor):
        calls["divide"] += 1
        return divide_before(self, divisor)

    def counted_gcd(a, b):
        monkeypatch.setattr(gcd, "_eliminate", counting_eliminate)
        monkeypatch.setattr(MultiPoly, "try_exact_div", counting_divide)
        calls.update(row_reduce=0, divide=0)
        g = multivariate_gcd(a, b)
        monkeypatch.undo()
        return g

    rng = random.Random(13)

    def form(degree):
        return MultiPoly(domain, {m: domain.scalar(rng.randrange(-3, 4))
                                  for m in monomials_of_degree(degree)})

    for _ in range(20):
        line = form(1)
        conic = form(2)
        pairs = [(form(2), form(2)), (line * form(1), line * form(1)),
                 (conic, conic * 3)]
        for a, b in pairs:
            if not (a and b):
                continue
            g = counted_gcd(a, b)
            assert a.try_exact_div(g) is not None
            assert b.try_exact_div(g) is not None
            assert calls["row_reduce"] <= 1
            assert 1 <= calls["divide"] <= 1 + calls["row_reduce"]
    # equal conics are decided at k = 2 by the division alone
    counted_gcd(conic, conic * 3)
    assert calls == {"row_reduce": 0, "divide": 1}


def test_gcd_refuses_a_cofactor_that_does_not_divide(monkeypatch):
    """A kernel vector whose v does not divide a is a package fault."""
    monkeypatch.setattr(gcd, "kernel_vector",
                        lambda rows, pivots: [1] * len(rows[0]))
    # neither conic divides the other, so the search runs at k = 1, where
    # the all-ones vector gives v = x0 + x1 + x2
    with pytest.raises(InvariantError):
        multivariate_gcd(parse_poly("x0^2 + x1^2"), parse_poly("x1^2 + x2^2"))
