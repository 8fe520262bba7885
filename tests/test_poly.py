import random
import time
from fractions import Fraction

import pytest

from quarticmoduli import poly, strata
from quarticmoduli.field import GF, QQ, FieldScalar, ParamRing
from quarticmoduli.gcd import _nonsingular_conic
from quarticmoduli.matrices import SHAPES, FormMatrix, act
from quarticmoduli.poly import (
    BinaryForm,
    Form,
    MultiPoly,
    ParseError,
    _eliminate,
    coefficient_rows,
    linear_rank,
    monomials_of_degree,
    parse_entry,
    parse_form,
    parse_poly,
    solve_linear,
)


def test_parse_basic_form():
    f = parse_form("x0^2 - x1*x2")
    assert f.degree == 2
    assert len(f.poly.terms) == 2


def test_parse_zero_accepts_any_degree():
    f = parse_form("0", expected_degree=5)
    assert not f
    assert f.degree == 5


def test_parse_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        parse_form("x0 + x1^2")


def test_parse_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        parse_form("x0^2", expected_degree=3)


def test_parse_syntax_error():
    with pytest.raises(ParseError):
        parse_poly("x0 + * x1")
    with pytest.raises(ParseError):
        parse_poly("x3")


def test_constant_power_is_reduced_mod_p():
    dom = GF(101)
    start = time.monotonic()
    f = parse_entry("2^999999999*x0", 1, dom)
    assert time.monotonic() - start < 1
    assert f.poly == MultiPoly.variable(dom, 0) * pow(2, 999999999, 101)
    assert parse_poly("(x0 - x0)^999999999") == parse_poly("0")
    assert parse_poly("(-1)^999999999*x1") == parse_poly("-x1")


def test_huge_power_of_a_variable_is_fast():
    start = time.monotonic()
    with pytest.raises(ParseError, match="expected 2, got a power of degree"):
        parse_form("x0^99999999", 2)
    assert parse_poly("x0^99999999") == MultiPoly.monomial(QQ, (99999999, 0, 0))
    assert time.monotonic() - start < 1
    # a power above the expected degree is refused even where it cancels
    for text in ("0*x0^3", "x0^3 - x0^3 + x1^2"):
        with pytest.raises(ParseError):
            parse_form(text, 2)
    assert parse_form("x0^3 - x0^3 + x1^2").poly == parse_poly("x1^2")


def test_power_by_squaring_matches_repeated_product():
    f = parse_poly("x0 - 2*x1 + 1/3*x2")
    product = MultiPoly.constant(QQ, 1)
    for n in range(8):
        assert f ** n == product
        product = product * f


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative power"):
        parse_poly("x0 + 1") ** -1


def test_power_modulo_is_the_remainder_of_the_power():
    for domain in (QQ, GF(101)):
        f = parse_poly("2*x1^3 - x1 + 5", domain)
        base = parse_poly("x1 + 3", domain)
        for n in (0, 1, 2, 7, 20):
            assert pow(base, n, f) == (base ** n).divmod(f)[1]


def test_constant_power_size_bounded_over_qq():
    assert parse_poly("2^10000").terms[(0, 0, 0)].value == 2 ** 10000
    assert parse_poly("1/2^3") == parse_poly("1/8")
    with pytest.raises(ParseError, match="exceeds 10000 bits"):
        parse_poly("2^10001*x0")
    with pytest.raises(ParseError, match="exceeds 10000 bits"):
        parse_entry("(3/2)^999999999*x0", 1, QQ)


def test_parse_rational_coefficients():
    f = parse_poly("-2/5*x0 + 3*x1")
    assert f.terms[(1, 0, 0)].value == Fraction(-2, 5)


def test_serialize_roundtrip():
    texts = [
        "x0^2 - x1*x2",
        "3*x0^4 + 1/2*x1^4 - x2^4",
        "x0*x1*x2",
        "0",
    ]
    for text in texts:
        f = parse_poly(text)
        assert parse_poly(f.serialize()) == f


def test_serialize_graded_lex_order():
    f = parse_poly("x2^2 + x0*x1 + x0^3")
    assert f.serialize() == "x0^3 + x0*x1 + x2^2"


def test_arithmetic_exact():
    a = parse_poly("x0 + x1")
    b = parse_poly("x0 - x1")
    assert (a * b).serialize() == "x0^2 - x1^2"
    assert a + b == parse_poly("2*x0")
    assert a - a == MultiPoly.zero(QQ)


def test_exact_division():
    f = parse_poly("x0^2 - x1^2")
    g = parse_poly("x0 + x1")
    q = f.exact_div(g)
    assert q == parse_poly("x0 - x1")
    assert f.try_exact_div(parse_poly("x2")) is None
    assert f.divmod(parse_poly("x0 - x2")) == (
        parse_poly("x0 + x2"), parse_poly("x2^2 - x1^2"))
    # a parameter ring has no inverses to divide by
    t = MultiPoly.constant(ParamRing(QQ, ("t",)), 1)
    with pytest.raises(TypeError, match="field domain"):
        (t + t).try_exact_div(t)


def test_evaluate_examples():
    f = parse_form("x0^2")
    assert not f.evaluate((QQ.zero, QQ.one, QQ.zero))
    g = parse_form("x0*x1 + x2^2")
    assert g.evaluate((QQ.one, QQ.one, QQ.zero)).value == 1
    # the limit-example quartic vanishes at its marked point
    h = parse_form("x0^2*x1^2 - x1^2*x2^2")
    assert not h.evaluate((QQ.zero, QQ.one, QQ.zero))


def test_evaluate_rejects_zero_point():
    f = parse_form("x0^2")
    with pytest.raises(ValueError):
        f.evaluate((QQ.zero, QQ.zero, QQ.zero))


def test_evaluate_refuses_a_point_that_is_not_a_triple():
    # zip would truncate a short point and ignore the rest of a long one
    f = parse_poly("x0^2 + x1*x2^2 + x2")
    assert f.evaluate([1, 2, 3]) == 1 + 2 * 9 + 3
    for point in ([1, 2], [1, 2, 3, 4], [], (QQ.one,)):
        with pytest.raises(ValueError, match=f"got {len(point)}$"):
            f.evaluate(point)
    g = Form(parse_poly("x0*x1"), 2)
    for point in ([1, 0], [0, 0], [1, 1, 1, 1]):
        with pytest.raises(ValueError, match=f"got {len(point)}$"):
            g.evaluate(point)


def test_evaluate_scaling_invariance():
    f = parse_form("x0^3 + x1^2*x2")
    p = (QQ.scalar(2), QQ.scalar(-1), QQ.scalar(3))
    q = tuple(c * QQ.scalar(5) for c in p)
    assert bool(f.evaluate(p)) == bool(f.evaluate(q))


def test_restrict_to_line_kills_multiples():
    line = parse_form("x0 + 2*x1 - x2")
    for text in ["x0^2", "x1*x2", "x0*x2 - x1^2"]:
        f = Form(parse_form(text).poly * line.poly, 3)
        assert not f.restrict_to_line(line)


def test_restrict_to_line_examples():
    # x2 = 0 turns x0^2 + x1*x2 into s^2
    f = parse_form("x0^2 + x1*x2")
    r = f.restrict_to_line(parse_form("x2"))
    assert r.coefficients[0].value == 1
    assert all(not c for c in r.coefficients[1:])
    # x0 = 0 leaves a binary quartic with roots 0, 1, -1, 2 in s/t
    f = parse_form(
        "x1*(x1 - x2)*(x1 + x2)*(x1 - 2*x2) + x0*x2^3", expected_degree=4
    )
    r = f.restrict_to_line(parse_form("x0"))
    for s, t in [(0, 1), (1, 1), (-1, 1), (2, 1)]:
        assert not r.evaluate((0, s, t))


def test_line_point_maps_back_to_the_line():
    line = parse_form("x0 + 2*x1 - x2")
    p = line.line_point(QQ.scalar(3), QQ.scalar(-1))
    assert not line.evaluate(p)


def test_binary_form_arithmetic():
    """Binary forms in s = x1, t = x2 multiply as Forms."""
    a = BinaryForm(parse_poly("x1 + 2*x2"), 1)  # s + 2t
    b = BinaryForm(parse_poly("x1 - 2*x2"), 1)  # s - 2t
    prod = BinaryForm((a * b).poly, (a * b).degree)
    assert prod.degree == 2
    assert [c.value for c in prod.coefficients] == [1, 0, -4]
    assert not prod.evaluate((0, 2, -1))
    assert prod.serialize() == "s^2 - 4*t^2"


def test_monomials_of_degree():
    assert len(monomials_of_degree(2)) == 6
    assert len(monomials_of_degree(4)) == 15
    assert all(sum(e) == 3 for e in monomials_of_degree(3))


def test_linear_rank_examples():
    forms = [parse_form(t) for t in ("x0*x2", "x0*x1", "x0^2")]
    assert linear_rank(forms, 2) == 3
    forms = [parse_form("x1^2"), parse_form("2*x1^2")]
    assert linear_rank(forms, 2) == 1
    assert linear_rank([], 2) == 0


def test_normalized_leading_coefficient_one():
    f = parse_form("3*x0^2 - 6*x1*x2")
    g = f.normalized()
    assert g.poly.leading_coefficient() == QQ.one
    assert g.poly * QQ.scalar(3) == f.poly


def test_prime_field_polynomials():
    dom = GF(7)
    f = parse_poly("x0^2 + 6*x1^2", domain=dom)
    g = parse_poly("x0^2 - x1^2", domain=dom)
    assert f == g


def random_res0_with_automorphisms(domain, rng):
    """A res0 matrix and graded matrices g, h around it for act."""
    def polys(src, tgt):
        return FormMatrix.from_polys(src, tgt, [
            [MultiPoly(domain, {m: rng.randrange(-50, 50)
                                for m in monomials_of_degree(s - t)})
             if s >= t else MultiPoly.zero(domain) for t in tgt]
            for s in src])

    src, tgt = SHAPES["res0"]
    return polys(src, tgt), polys(src, src), polys(tgt, tgt)


@pytest.mark.parametrize("domain", [GF(101), QQ], ids=repr)
def test_form_product_runs_on_raw_values(domain, monkeypatch):
    """Exact counts: a product of two quadrics adds and multiplies raw
    values, with no scalar operator and no Domain.scalar call; it, the
    other ring operations, exact division, a res0 determinant, act and
    linear_rank construct no FieldScalar."""
    f = parse_poly("x0^2 + 2*x0*x1 - 3*x1*x2 + 5*x2^2", domain)
    g = parse_poly("7*x0^2 - x0*x2 + x1^2 + 3*x1*x2", domain)
    calls = []
    for owner, name in ((FieldScalar, "__mul__"), (FieldScalar, "__rmul__"),
                        (FieldScalar, "__add__"), (FieldScalar, "__radd__"),
                        (type(domain), "scalar")):
        before = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _before=before,
                            _name=name: calls.append(_name) or _before(*args))
    product = f * g
    assert calls == []
    f.terms[(2, 0, 0)] * f.terms[(0, 0, 2)]  # the counters do count
    assert calls == ["__mul__"]
    monkeypatch.undo()
    assert product == parse_poly(
        "7*x0^4 + 14*x0^3*x1 - x0^3*x2 + x0^2*x1^2 - 20*x0^2*x1*x2"
        " + 35*x0^2*x2^2 + 2*x0*x1^3 + 6*x0*x1^2*x2 + 3*x0*x1*x2^2"
        " - 5*x0*x2^3 - 3*x1^3*x2 - 4*x1^2*x2^2 + 15*x1*x2^3", domain)

    a, left, right = random_res0_with_automorphisms(domain, random.Random(3))
    work = {
        "f * g": lambda: f * g,
        "f + g": lambda: f + g,
        "-f": lambda: -f,
        "try_exact_div": lambda: product.try_exact_div(g),
        "det": a.determinant,
        "act": lambda: act(left, a, right),
        "linear_rank": lambda: linear_rank(a.row(0), 2),
    }
    built = []
    init = FieldScalar.__init__
    monkeypatch.setattr(FieldScalar, "__init__",
                        lambda *args: built.append(1) or init(*args))
    counts = {}
    for name, run in work.items():
        built.clear()
        run()
        counts[name] = len(built)
    assert counts == dict.fromkeys(work, 0)
    assert len(f.terms) == len(built) == 4  # the boxed view does count


@pytest.mark.parametrize("domain", [GF(101), QQ], ids=repr)
def test_linear_algebra_builds_no_field_scalars(domain, monkeypatch):
    """Exact count: coefficient_rows, solve_linear and linear_rank run on
    raw values and construct no FieldScalar."""
    row = random_res0_with_automorphisms(domain, random.Random(3))[0].row(0)
    target = row[0] + row[1] * 2 + row[2] * 3
    built = []
    init = FieldScalar.__init__
    monkeypatch.setattr(FieldScalar, "__init__",
                        lambda *args: built.append(1) or init(*args))
    matrix = list(zip(*coefficient_rows(row, 2)))
    rhs = coefficient_rows([target], 2)[0]
    solution = solve_linear(matrix, rhs, domain.modulus)
    rank = linear_rank(row, 2)
    assert built == []
    domain.scalar(1)  # the counter does count
    assert built == [1]
    monkeypatch.undo()
    assert rank == 3
    assert solution == [1, 2, 3]


@pytest.mark.parametrize("domain", [GF(101), QQ], ids=repr)
def test_sums_of_products_build_one_polynomial_each(domain, monkeypatch):
    """Exact counts of the polynomials that MultiPoly.from_raw builds: a
    res0 determinant one per 2x2 minor and one for the cofactor sum; act
    one per entry of each of its two products; classify_res0, on an M00
    matrix with a nonsingular conic among its minors, one per signed minor
    (three determinants and a negation) and one for the quartic.  Building
    every product and partial sum as a polynomial of its own took 18, 90
    and 19."""
    a, left, right = random_res0_with_automorphisms(domain, random.Random(3))
    work = {
        "det": a.determinant,
        "act": lambda: act(left, a, right),
        "classify_res0": lambda: strata.classify_res0(a),
    }
    built = []
    from_raw = MultiPoly.from_raw.__func__
    monkeypatch.setattr(MultiPoly, "from_raw", classmethod(
        lambda cls, *args: built.append(1) or from_raw(cls, *args)))
    counts, results = {}, {}
    for name, run in work.items():
        built.clear()
        results[name] = run()
        counts[name] = len(built)
    monkeypatch.undo()
    assert counts == {"det": 4, "act": 18, "classify_res0": 5}
    report = results["classify_res0"]
    assert report.label == strata.M00
    assert report.quartic == results["det"]
    assert any(_nonsingular_conic(m) for m in report.scheme_ideal)
    assert results["act"].determinant() == (
        left.determinant() * a.determinant() * right.determinant())


def count_fractions_built_in_poly(monkeypatch):
    """The list that records each Fraction the poly module builds."""
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(poly, "Fraction", CountingFraction)
    return built


def test_integral_qq_forms_run_without_fractions(monkeypatch):
    """Over QQ the raw values of integral forms are ints: their product,
    sum, difference and exact division by a divisor with leading
    coefficient 1 or -1 build no Fraction in poly."""
    f = parse_poly("x0^2 + 2*x0*x1 - 3*x1*x2 + 5*x2^2")
    g = parse_poly("x0^2 - x0*x2 + x1^2 + 3*x1*x2")
    product, other = f * g, parse_poly("x0^2 + x1^2")
    assert all(type(v) is int for h in (f, g, product) for v in h.raw.values())
    built = count_fractions_built_in_poly(monkeypatch)
    results = [f * g, f + g, f - g, product.try_exact_div(g),
               product.try_exact_div(-g), product.try_exact_div(other)]
    assert built == []
    assert results[3] == f and results[4] == -f and results[5] is None
    assert all(type(v) is int for h in results[:5] for v in h.raw.values())
    # any other leading coefficient costs one Fraction, its inverse
    assert product.try_exact_div(f * 7) == g * Fraction(1, 7)
    assert built == [(1, 7)]


@pytest.mark.parametrize("seed", range(6))
def test_fraction_free_elimination_divides_only_at_the_end(seed, monkeypatch):
    """_eliminate over QQ on an integer matrix builds a Fraction only when
    it divides a pivot row by its pivot at the end: one for each entry of
    the reduced pivot rows that is not an integer, so at most one per
    nonzero entry of a pivot row."""
    rng = random.Random(seed)
    m, n, r = rng.randint(2, 6), rng.randint(2, 7), rng.randint(1, 4)
    a = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
    b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]
    rows.append([0] * n)  # a zero row
    built = count_fractions_built_in_poly(monkeypatch)
    pivots = _eliminate(rows, None)
    pivot_rows = rows[:len(pivots)]
    fractions = [v for row in pivot_rows for v in row if type(v) is not int]
    assert len(built) == len(fractions)
    assert len(built) <= sum(1 for row in pivot_rows for v in row if v)
    assert all(v.denominator > 1 for v in fractions)
    assert all(row[col] == 1 for row, col in zip(pivot_rows, pivots))
    assert all(not any(row) for row in rows[len(pivots):])
