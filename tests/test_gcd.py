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
    """Exact counts: a GCD of two conics runs at most two row reductions,
    one for k = 2 and one for k = 1."""
    calls = []
    eliminate_before = gcd._eliminate
    monkeypatch.setattr(gcd, "_eliminate",
                        lambda rows, p: calls.append(1)
                        or eliminate_before(rows, p))
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
            calls.clear()
            g = multivariate_gcd(a, b)
            assert a.try_exact_div(g) is not None
            assert b.try_exact_div(g) is not None
            assert len(calls) <= 2
    # equal conics are decided at k = 2 alone
    calls.clear()
    multivariate_gcd(conic, conic * 3)
    assert len(calls) == 1


def test_gcd_refuses_a_cofactor_that_does_not_divide(monkeypatch):
    """A kernel vector whose v does not divide a is a package fault."""
    monkeypatch.setattr(gcd, "kernel_vector",
                        lambda rows, pivots: [1] * len(rows[0]))
    # at k = 1 the all-ones vector gives v = x0 + x1 + x2
    with pytest.raises(InvariantError):
        multivariate_gcd(parse_poly("x0^2 + x1^2"), parse_poly("x1"))
