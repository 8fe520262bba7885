import random
import re
import signal
import time
from fractions import Fraction

import pytest

from quarticmoduli import degeneration, gcd, matrices, poly, strata
from quarticmoduli.field import GF, QQ, FieldScalar, ParamRing
from quarticmoduli.gcd import _conic_rank
from quarticmoduli.matrices import (
    SHAPES,
    FormMatrix,
    GradedAutomorphism,
    act,
    random_form,
    random_graded_automorphism,
    random_matrix,
)
from quarticmoduli.poly import (
    _GUARDS,
    DEGREE_LIMIT,
    BinaryForm,
    Form,
    MultiPoly,
    ParseError,
    _eliminate,
    coefficient_rows,
    key_exponent,
    linear_rank,
    monomial_key,
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


@pytest.mark.parametrize("text", ["x0^²", "x0^¹⁰", "x1^2²"])
def test_parse_refuses_superscript_exponents(text):
    # superscript digits pass str.isdigit but are no decimal exponent
    with pytest.raises(ParseError, match="expected integer exponent"):
        parse_poly(text)


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


def refused(error, run):
    """The one-line message of the error that run() raises."""
    with pytest.raises(error) as info:
        run()
    message = str(info.value)
    assert message and "\n" not in message
    return message


def test_degree_bound_is_refused_never_wrapped():
    top = DEGREE_LIMIT - 1
    assert DEGREE_LIMIT == 2**31
    assert list(parse_poly(f"x0^{top}").terms) == [(top, 0, 0)]
    assert "2^31" in refused(ParseError,
                             lambda: parse_poly("x0^2147483648"))
    assert "2^31" in refused(ParseError,
                             lambda: parse_poly("(x0*x1)^1073741824"))
    # checked before the product, and the degree, of 4,301 digits here, is
    # not printed
    assert "2^31" in refused(ParseError,
                             lambda: parse_poly("x0^2147483647*x0"))
    assert "2^31" in refused(ParseError,
                             lambda: parse_poly("(x0*x1)^" + "9" * 4300))
    for exp in ((2**31, 0, 0), (2**30, 2**30, 0), (0, -1, 1)):
        assert "out of range" in refused(
            ValueError, lambda: MultiPoly.monomial(QQ, exp))
        assert "out of range" in refused(
            ValueError, lambda: MultiPoly(QQ, {exp: 1}))
    half = MultiPoly.monomial(QQ, (0, 2**30, 0))
    wide = parse_poly(f"x1^{2**30} + 3*x2^{2**30}")  # a one-term factor's
    products = [lambda: half * half, lambda: half ** 2,
                lambda: half * wide, lambda: wide * half,
                lambda: parse_poly(f"x1^{top} + 1") * parse_poly("x2 - 1"),
                lambda: parse_poly("x0^2000000000*x0^2000000000"),
                lambda: half.substitute([half, half, half])]
    for product in products:
        assert "2^31" in refused(ValueError, product)
    assert half * MultiPoly.monomial(QQ, (0, 0, 2**30 - 1)) == \
        MultiPoly.monomial(QQ, (0, 2**30, 2**30 - 1))


def reference_dot(pairs):
    """The sum of products of term dicts by the plain nested loop."""
    raw = {}
    for left, right in pairs:
        for ea, v in left.items():
            for eb, w in right.items():
                raw[ea + eb] = v * w + raw.get(ea + eb, 0)
    return raw


@pytest.mark.parametrize("domain", [GF(101), QQ], ids=repr)
def test_dot_raw_one_term_pass_matches_the_nested_loop(domain):
    # a one-term factor, constant or not, on either side, and one-term
    # times one-term: the same keys in the same order, the same raw values
    def raw(text):
        return parse_poly(text, domain).raw

    dense, sparse = raw("2*x0^2 - x1*x2 + 5*x2^2 + 3*x0 - 7"), raw("x1 - 1")
    ones = [raw(t) for t in ("4", "-3*x0*x2", "x1^2", "1/2" if domain == QQ
                             else "50")]
    shapes = [[(one, other)] for one in ones for other in (dense, sparse)]
    shapes += [[(other, one)] for one in ones for other in (dense, sparse)]
    shapes += [[(u, v)] for u in ones for v in ones]
    # several pairs into one dict, overlapping keys, zero factors mixed in
    shapes.append([(ones[0], dense), (dense, ones[1]), ({}, dense),
                   (ones[2], ones[3]), (sparse, dense), (dense, {}),
                   (ones[1], sparse)])
    for pairs in shapes:
        got = poly.dot_raw(pairs)
        assert list(got.items()) == list(reference_dot(pairs).items()), pairs


def test_key_layout_properties():
    """Keys round-trip; int order is (degree, exponent) order; a key sum is
    the exponent sum, also where a field passes 2^31; the guard-bit test
    is componentwise >=."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    top = DEGREE_LIMIT - 1

    @st.composite
    def exponents(draw):
        e0 = draw(st.integers(0, top))
        e1 = draw(st.integers(0, top - e0))
        return tuple(draw(st.permutations(
            [e0, e1, draw(st.integers(0, top - e0 - e1))])))

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(exponents(), exponents())
    def layout(a, b):
        ka, kb = monomial_key(a), monomial_key(b)
        assert key_exponent(ka) == a and ka >> 96 == sum(a)
        assert (ka < kb) == ((sum(a), a) < (sum(b), b))
        total = ka + kb
        assert key_exponent(total) == tuple(x + y for x, y in zip(a, b))
        assert total >> 96 == sum(a) + sum(b)
        for q, divides in ((ka - kb, all(x >= y for x, y in zip(a, b))),
                           (total - kb, True)):
            assert (q >= 0 and not q & _GUARDS) == divides

    layout()


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
    # a constant is a one-term base like any other: its power is refused
    # at 4,300 digits, from its bit length before it is computed; the
    # alarm turns a hang into a failure
    assert parse_poly("2^14284").terms[(0, 0, 0)].value == 2 ** 14284
    assert parse_poly("1/2^3") == parse_poly("1/8")
    with pytest.raises(ParseError, match=re.escape(
            "'2^14285' has over 4300 digits")):
        parse_poly("2^14285*x0")

    def expire(signum, frame):
        raise TimeoutError("no answer in 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        for text in ("(3/2)^999999999*x0", "(3*x0)^1000000000",
                     "3^1000000000"):
            start = time.monotonic()
            with pytest.raises(ParseError, match=re.escape(
                    f"'{text.removesuffix('*x0')}' has over 4300 digits")):
                parse_poly(text)
            assert time.monotonic() - start < 0.1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def kth_root(n, k):
    """The largest int r with r**k <= n, by Newton's method."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def test_power_product_and_sum_of_edge_constants_agree():
    """Over QQ, with c near the 4,300-digit edge, a power, a product and a
    sum that are the same polynomial are all parsed or all refused:
    (c*x0)^k and (c*x0)*...*(c*x0), c^k*x0 and c*...*c*x0, and
    c*x0 + c*x0 and 2*c*x0, for c an integer or its inverse."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def verdict(text):
        try:
            parse_poly(text)
        except ParseError:
            return "refused"
        return "parsed"

    @hypothesis.settings(max_examples=20, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.integers(2, 5), st.integers(-2, 2),
                      st.sampled_from(["{}", "1/{}"]))
    @hypothesis.example(2, 0, "{}")  # the three inputs that failed with a
    @hypothesis.example(2, 1, "{}")  # bound of 10,000 bits on a constant
    @hypothesis.example(2, 1, "1/{}")  # power and none on another
    def agree(k, step, form):
        c = form.format(kth_root(10**4300 - 1, k) + step)
        half = form.format(5 * 10**4299 + step)
        pairs = [(f"({c}*x0)^{k}", "*".join([f"({c}*x0)"] * k)),
                 (f"{c}^{k}*x0", "*".join([c] * k) + "*x0"),
                 (f"{half}*x0 + {half}*x0", f"2*{half}*x0")]
        assert [verdict(one) for one, _ in pairs] \
            == [verdict(other) for _, other in pairs]

    agree()


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
    # a Form is the MultiPoly of its terms, with a degree
    f, g = parse_form("x0 + x1"), parse_form("x0*x2")
    assert isinstance(f, MultiPoly) and f.poly is f
    assert f == a and hash(f) == hash(a) and a == f
    assert Form.zero(QQ, 3) == 0 == Form.zero(QQ, 1)
    assert hash(Form.zero(QQ, 3)) == hash(MultiPoly.zero(QQ))
    for form, degree in ((f + f, 1), (f - f, 1), (f * g, 3), (g * f, 3),
                         (f * QQ.scalar(2), 1), (3 * g, 2), (-g, 2),
                         (f.normalized(), 1), (Form.zero(QQ, 4) + g, 2)):
        assert type(form) is Form and form.degree == degree, form
    with pytest.raises(ValueError, match="different degrees"):
        f + g
    with pytest.raises(ValueError, match="different degrees"):
        f - g
    # with a MultiPoly that is not a Form, the result is a MultiPoly
    for poly, value in ((a * f, a * a), (f * a, a * a), (a + f, a + a),
                        (f + a, a + a), (a - f, a - a), (f - a, a - a),
                        (b * g, b * parse_poly("x0*x2"))):
        assert type(poly) is MultiPoly and poly == value


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
    assert type(a * b) is Form and (a * b).degree == 2
    prod = BinaryForm((a * b).poly, (a * b).degree)
    assert prod.degree == 2
    assert [c.value for c in prod.coefficients] == [1, 0, -4]
    assert not prod.evaluate((0, 2, -1))
    assert prod.serialize() == "s^2 - 4*t^2"
    # no constructor called on a Form class builds a Form without a degree
    for cls in (Form, BinaryForm):
        for built in (cls.zero(QQ, 2), cls.constant(QQ, 1),
                      cls.variable(QQ, 1), cls.monomial(QQ, (0, 1, 1)),
                      cls.from_raw(QQ, {monomial_key((0, 1, 0)): 1})):
            assert type(built) is MultiPoly or built.degree >= 0, built
    assert type(BinaryForm.zero(QQ, 2)) is BinaryForm


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
    assert g.coefficient((2, 0, 0)) == QQ.one
    assert g.poly * QQ.scalar(3) == f.poly


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_hash_agrees_with_equality_to_ints(domain):
    # a constant hashes as the int it equals, so a set or dict key holds
    # 0 and every zero polynomial as one
    zeros = [Form.zero(domain, 3), Form.zero(domain, 1), MultiPoly.zero(domain)]
    assert all(z == 0 and hash(z) == hash(0) for z in zeros)
    assert len({*zeros, 0}) == 1
    seven = parse_form("7", domain=domain)
    assert seven == 7 and hash(seven) == hash(7) and {7: "c"}[seven] == "c"
    x0 = MultiPoly.variable(domain, 0)
    assert parse_form("x0", domain=domain) == x0
    assert hash(parse_form("x0", domain=domain)) == hash(x0)
    if domain == QQ:
        half = MultiPoly.constant(QQ, Fraction(-1, 2))
        assert hash(half) == hash(Fraction(-1, 2))
    else:
        # equal to the canonical 100 and to -1, but hashed as 100 alone
        minus_one = MultiPoly.constant(domain, -1)
        assert minus_one == 100 and minus_one == -1
        assert hash(minus_one) == hash(100)


def test_prime_field_polynomials():
    dom = GF(7)
    f = parse_poly("x0^2 + 6*x1^2", domain=dom)
    g = parse_poly("x0^2 - x1^2", domain=dom)
    assert f == g


def random_res0_with_automorphisms(domain, rng):
    """A res0 matrix and graded matrices g, h around it for act."""
    def polys(src, tgt):
        return FormMatrix(src, tgt, [
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
    """Exact counts of the polynomials that MultiPoly.from_raw builds and
    of the term dicts that Domain.canonical passes over: a res0
    determinant no polynomial and one pass, its 2x2 minors and partial
    sums kept as term dicts and the result wrapped as a form; act no
    polynomial, and one pass for each of the nine entries of g * a * h,
    with g * a kept as raw term dicts; classify_res0, on an M00
    matrix with a nonsingular conic among its minors, one pass per signed
    minor (three determinants, the odd minor's sign a row swap), each
    wrapped as a form, and one for the quartic, wrapped as a form; the
    invertibility test of a GradedAutomorphism none.  Building every
    product and partial sum as a polynomial of its own took 18, 90 and 19
    polynomials; building g * a as a matrix and negating the odd minor
    took 18 for act and 5 for classify_res0; an act entry that was a
    polynomial before it was a form took 9, and a determinant that was a
    polynomial before it was a form 1; and a polynomial per 2x2 minor
    and per signed minor took 4 for det and 4 for classify_res0, and a
    quartic built as a polynomial 1 for classify_res0.  None of
    these runs, nor random_matrix, checks a form through Form.__init__:
    each result's degree is fixed by its checked inputs."""
    a, left, right = random_res0_with_automorphisms(domain, random.Random(3))
    work = {
        "det": a.determinant,
        "act": lambda: act(left, a, right),
        "classify_res0": lambda: strata.classify_res0(a),
        "automorphism": lambda: GradedAutomorphism(left),
        "random_matrix": lambda: random_matrix("res0", domain, seed=3),
    }
    built, passes, checked = [], [], []
    from_raw = MultiPoly.from_raw.__func__
    monkeypatch.setattr(MultiPoly, "from_raw", classmethod(
        lambda cls, *args: built.append(1) or from_raw(cls, *args)))
    canonical = type(domain).canonical
    monkeypatch.setattr(type(domain), "canonical", lambda self, raw:
                        passes.append(1) or canonical(self, raw))
    init = Form.__init__
    monkeypatch.setattr(Form, "__init__", lambda self, *args: checked.append(
        1) or init(self, *args))
    counts, results = {}, {}
    for name, run in work.items():
        built.clear()
        passes.clear()
        checked.clear()
        results[name] = run()
        counts[name] = (len(built), len(passes), len(checked))
    Form(MultiPoly.zero(domain), 1)
    assert checked == [1]  # the counter does count
    monkeypatch.undo()
    assert counts == {"det": (0, 1, 0), "act": (0, 9, 0),
                      "classify_res0": (0, 4, 0), "automorphism": (0, 0, 0),
                      "random_matrix": (0, 0, 0)}
    report = results["classify_res0"]
    assert report.label == strata.M00
    assert report.quartic == results["det"]
    assert any(_conic_rank(m)[0] == 3 for m in report.scheme_ideal)
    assert results["act"].determinant() == (
        left.determinant() * a.determinant() * right.determinant())


@pytest.mark.parametrize("domain", [GF(101), QQ], ids=repr)
def test_matrices_are_checked_once_where_they_enter(domain, monkeypatch):
    """Exact counts on the boundary path: the derived matrices, act,
    BlowupChartPoint.total and tangent_quartic, after its one shape check
    of the direction, run no FormMatrix.__init__ (each ran it once, total
    twice and tangent_quartic three times); boundary_parameters builds no
    boundary_matrix (it rebuilt one to compare), and BlowupChartPoint
    takes no maximal minor (it took those of its linear part)."""
    a, left, right = random_res0_with_automorphisms(domain, random.Random(3))
    pt = degeneration.make_blowup_chart_point(
        domain, 1, 2, -1, 1, "x0^2 + x1^2", "x1*x2", "3*x2^2", (1, 2, 0, -1),
        "a", 2)
    x1, two = (parse_form(text, domain=domain) for text in ("x1", "2"))
    work = {
        "sum": lambda: a + a,
        "scaled": lambda: a.scaled(3),
        "transpose": a.transpose,
        "submatrix": lambda: a.submatrix([1, 2], [0, 1, 2]),
        "row scaled": lambda: a.with_row_scaled(0, 2),
        "column scaled": lambda: a.transpose().with_row_scaled(2, 2)
        .transpose(),
        "row added": lambda: a.with_row_added(0, 1, x1),
        "column added": lambda: a.transpose().with_row_added(0, 1, two)
        .transpose(),
        "act": lambda: act(left, a, right),
        "total": pt.total,
        "tangent_quartic": lambda: degeneration.tangent_quartic(pt.a, pt.b),
    }
    checked, built, minors = [], [], []
    init = FormMatrix.__init__
    monkeypatch.setattr(FormMatrix, "__init__", lambda self, *args: checked
                        .append(1) or init(self, *args))
    boundary_matrix = strata.boundary_matrix
    monkeypatch.setattr(strata, "boundary_matrix", lambda *args: built
                        .append(1) or boundary_matrix(*args))
    maximal_minors = FormMatrix.maximal_minors
    monkeypatch.setattr(FormMatrix, "maximal_minors", lambda self: minors
                        .append(1) or maximal_minors(self))
    counts = {}
    for name, run in work.items():
        checked.clear()
        run()
        counts[name] = len(checked)
    params = strata.boundary_parameters(pt.a)
    again = degeneration.BlowupChartPoint(pt.a, 1, pt.b, "a")
    assert (built, minors) == ([], [])
    checked.clear()
    strata.boundary_matrix(*params)  # the counters do count
    pt.a.submatrix([1, 2], [0, 1, 2]).maximal_minors()
    assert (checked, built, minors) == ([1], [1], [1])
    monkeypatch.undo()
    assert counts == dict.fromkeys(work, 0)
    assert params == (pt.params["xbar0"], pt.params["w"])
    assert again.params == pt.params


def twisted_ideal_by_products(f, l, g):
    """(w, h) with f = l*h - w*g by one dense solve over the columns of h
    and then w, the products l*m and -(g*m) of monomial forms, free
    variables set to 0, or None when f is not in (l, g): a reference for
    build_twisted_ideal_resolution, which divides by l instead."""
    domain = f.domain
    cubics, linears = monomials_of_degree(3), monomials_of_degree(1)
    columns = [l * Form(MultiPoly.monomial(domain, m), 3) for m in cubics]
    columns += [-(g * Form(MultiPoly.monomial(domain, m), 1))
                for m in linears]
    x = solve_linear(list(zip(*coefficient_rows(columns, 4))),
                     coefficient_rows([f], 4)[0], domain.modulus)
    if x is None:
        return None
    w, h = Form.zero(domain, 1), Form.zero(domain, 3)
    for m, c in zip(linears, x[len(cubics):]):
        w = w + Form(MultiPoly.monomial(domain, m, c), 1)
    for m, c in zip(cubics, x):
        h = h + Form(MultiPoly.monomial(domain, m, c), 3)
    return w, h


@pytest.mark.parametrize("domain", [QQ, GF(101), GF(3)], ids=repr)
def test_key_shift_columns_solve_as_product_columns(domain):
    # the twisted ideal's (w, h) by division by l equal those of the dense
    # solve over product-built columns, and the row-space test of a
    # zero-determinant res0 matrix's top row, whose columns are laid out
    # by key shift, equals the solve over product-built columns
    rng = random.Random(17)
    solved = 0
    while solved < 10:
        l = Form(MultiPoly.variable(domain, 0), 1) + random_form(domain, 1, rng)
        g, w, h = (random_form(domain, d, rng) for d in (3, 1, 3))
        f = l * h - w * g
        if not g or not f or f.try_exact_div(l) is not None:
            continue
        res = degeneration.build_twisted_ideal_resolution(f, l, g)
        assert (res.w, res.h) == twisted_ideal_by_products(f, l, g)
        solved += 1
    x0, x1, x2 = (Form(MultiPoly.variable(domain, i), 1) for i in range(3))
    k = FormMatrix((2, 2), (1, 1, 1), [[-x2, x1 + x2, x0], [x1, -x0, x2]])
    for top in ([x0 * e for e in k.row(0)],
                [x1 * e + x2 * f for e, f in zip(*k.entries)],
                [x0 * x0, x1 * x1, x2 * x2]):
        by_products = solve_linear(
            list(zip(*[sum(coefficient_rows([x * e for e in k.row(i)], 2), [])
                       for i in range(2) for x in (x0, x1, x2)])),
            sum(coefficient_rows(top, 2), []), domain.modulus) is not None
        assert strata._in_row_space(top, k) == by_products
        assert by_products == (top != [x0 * x0, x1 * x1, x2 * x2])


@pytest.mark.parametrize("domain", [QQ, GF(101), GF(3)], ids=repr)
def test_twisted_ideal_by_division_matches_the_dense_solve(domain):
    # lines with and without an x0 term (l = x0 + ... above never draws
    # x1 + c*x2, x1 or x2), each with a member f, an f that l divides (the
    # w = 0 branch), a g that l divides while f is not, and a random
    # quartic, which is outside (l, g) unless the dense solve finds it in:
    # (w, h) equal the reference's, text and all, and the refusals share
    # one text
    rng = random.Random(29)
    x0, x1, x2 = (Form(MultiPoly.variable(domain, i), 1) for i in range(3))
    refusal = re.escape("quartic is not in the ideal (l, g): Z is not on C")
    seen = set()
    for _ in range(4):
        lines = [x0 + random_form(domain, 1, rng), x1, x2,
                 *(x1 + x2 * domain.scalar(c) for c in (1, 2, -3))]
        for l in lines:
            g, w, h = (random_form(domain, d, rng) for d in (3, 1, 3))
            l_g = l * random_form(domain, 2, rng)
            cases = [("member", l * h - w * g, g), ("l | f", l * h, g),
                     ("l | g", l * h + Form(x2 ** 4, 4), l_g),
                     ("random", random_form(domain, 4, rng), g)]
            for kind, f, g_case in cases:
                if not (f and g_case) or kind == "l | g" and \
                        f.try_exact_div(l) is not None:
                    continue
                expected = twisted_ideal_by_products(f, l, g_case)
                if expected is None:
                    with pytest.raises(ValueError, match=f"^{refusal}$"):
                        degeneration.build_twisted_ideal_resolution(
                            f, l, g_case)
                    seen.add((kind, "refused"))
                    continue
                res = degeneration.build_twisted_ideal_resolution(f, l, g_case)
                assert (res.w, res.h) == expected
                assert [res.w.serialize(), res.h.serialize()] \
                    == [e.serialize() for e in expected]
                assert res.semistable == (f.try_exact_div(l) is None)
                seen.add((kind, "solved"))
    assert seen >= {("member", "solved"), ("l | f", "solved"),
                    ("l | g", "refused"), ("random", "refused")}


def assert_checked(f):
    """f, a Form built unchecked, passes the checked constructor and holds
    canonical raw values: ints in (0, p) over GF(p); over QQ nonzero ints
    and Fractions with a denominator above 1."""
    assert isinstance(f, Form) and f.degree >= 0
    assert Form(MultiPoly.from_raw(f.domain, f.raw), f.degree) == f
    p = f.domain.modulus
    for v in f.raw.values():
        assert (type(v) is int and 0 < v < p) if p else \
            (type(v) is int and v) or (type(v) is Fraction and v.denominator > 1)


def assert_normalized(f):
    """f.normalized() is checked, monic, proportional to f and of f's
    type: a Form for any Form, a BinaryForm included."""
    n = f.normalized()
    if not f:
        assert n is f
        return
    assert type(n) is Form
    assert_checked(n)
    lead = key_exponent(max(f.raw))  # the graded-lex leading term
    assert n.coefficient(lead) == 1
    assert n * f.coefficient(lead) == f


def test_forms_built_unchecked_pass_the_check():
    # every form that act, determinant, maximal_minors, classify_res0 and
    # classify_res1, random_form and normalized build without the check
    # of Form.__init__ would pass it, on random res0 and res1 matrices and
    # automorphism pairs
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=12, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.sampled_from([QQ, GF(101), GF(3)]),
                      st.sampled_from(sorted(SHAPES)), st.integers(0, 2**32))
    def checked(domain, shape, seed):
        rng = random.Random(seed)
        a = random_matrix(shape, domain, rng=rng)
        src, tgt = SHAPES[shape]
        moved = act(random_graded_automorphism(src, domain, rng), a,
                    random_graded_automorphism(tgt, domain, rng))
        classify = strata.classify_res0 if shape == "res0" \
            else strata.classify_res1
        forms = [random_form(domain, 2, rng)]
        for m in (a, moved):
            forms += [e for row in m.entries for e in row]
            forms += [m.determinant()]
            forms += (m.submatrix([1, 2], [0, 1, 2]) if shape == "res0"
                      else m.submatrix([0, 1], [0])).maximal_minors()
            report = classify(m)
            forms += [f for f in (report.quartic, report.cubic, report.line)
                      if f is not None] + list(report.scheme_ideal or ())
        for f in forms:
            assert_checked(f)
            assert_normalized(f)
        quartic = moved.determinant()
        line = next((e for e in moved.entries[-1] if e.degree == 1 and e),
                    None)
        if line is not None:
            assert_normalized(quartic.restrict_to_line(line))
        poly = MultiPoly.from_raw(domain, dict(quartic.raw))
        assert type(poly.normalized()) is MultiPoly

    for domain in (QQ, GF(101), GF(3)):
        for shape in SHAPES:
            checked = hypothesis.example(domain, shape, 7)(checked)
    start = time.monotonic()
    checked()
    assert time.monotonic() - start < 1


def test_division_and_gcd_of_forms_give_forms():
    """For Forms f and g of degrees d and e over QQ and GF(101), divmod
    gives Forms of degrees max(d - e, 0) and d, try_exact_div and
    exact_div a Form of degree d - e or no quotient, and multivariate_gcd
    and gcd_fold a Form of its degree: each checked, with the terms that
    the same call gives on the MultiPolys of their terms."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def plain(f):
        return MultiPoly.from_raw(f.domain, dict(f.raw))

    def same(form, poly, degree):
        assert type(form) is Form and form.degree == degree
        assert_checked(form)
        assert form.raw == poly.raw

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.sampled_from([QQ, GF(101)]), st.integers(0, 3),
                      st.integers(0, 3), st.integers(0, 2),
                      st.integers(0, 2**32))
    def closed(domain, d, e, c, seed):
        rng = random.Random(seed)
        h, g, k = (random_form(domain, n, rng) for n in (d, e, c))
        hypothesis.assume(g and k)
        for f in (h, h * g, h * g + Form.variable(domain, 0) ** (d + e)):
            if not isinstance(f, Form):  # a power is a MultiPoly
                f = Form(f, d + e)
            q, r = f.divmod(g)
            q0, r0 = plain(f).divmod(plain(g))
            same(q, q0, max(f.degree - e, 0))
            same(r, r0, f.degree)
            exact = f.try_exact_div(g)
            if plain(f).try_exact_div(plain(g)) is None:
                assert exact is None
                with pytest.raises(ValueError):
                    f.exact_div(g)
            else:
                same(exact, q0, f.degree - e)
                same(f.exact_div(g), q0, f.degree - e)
        forms = [h * k, g * k, h * g * k]
        for found, expected in (
                (gcd.multivariate_gcd(*forms[:2]),
                 gcd.multivariate_gcd(*map(plain, forms[:2]))),
                (gcd.gcd_fold(forms), gcd.gcd_fold(list(map(plain, forms))))):
            same(found, expected, max(expected.total_degree(), 0))

    for domain in (QQ, GF(101)):
        closed = hypothesis.example(domain, 2, 3, 0, 1)(closed)  # d < e
    closed()


def test_form_constructors_build_forms():
    for domain in (QQ, GF(101)):
        cases = [(Form.zero(domain, 3), MultiPoly.zero(domain), 3),
                 (Form.constant(domain, 205), MultiPoly.constant(domain, 205),
                  0)]
        cases += [(Form.variable(domain, i), MultiPoly.variable(domain, i), 1)
                  for i in range(3)]
        for form, poly, degree in cases:
            assert type(form) is Form and form.degree == degree
            assert type(poly) is MultiPoly and form == poly
    assert type(BinaryForm.variable(QQ, 1)) is BinaryForm


def test_sample_path_runs_no_determinant_or_elimination_it_can_skip(
        monkeypatch):
    """Exact counts: a GradedAutomorphism tests each scalar block with one
    elimination on its raw constants and takes no det; classify_res1 reads
    the rank of its z column off line_intersection's cross product, so on
    M10 matrices it takes one det, the quartic, and runs no elimination
    (one each when it ranked the column with linear_rank).  A determinant
    is one call of matrices._expand, which a 2x2 matrix makes once."""
    _, left, right = random_res0_with_automorphisms(GF(101), random.Random(3))
    rng = random.Random(7)
    m10 = []
    while len(m10) < 20:
        m = random_matrix("res1", GF(101), rng=rng)
        if strata.classify_res1(m).label == strata.M10:
            m10.append(m)
    calls = []
    for owner in (matrices, poly, gcd, strata):
        for name in ("_expand", "_eliminate"):
            if hasattr(owner, name):
                before = getattr(owner, name)
                monkeypatch.setattr(owner, name, lambda *args, _b=before,
                                    _n=name: calls.append(_n) or _b(*args))
    GradedAutomorphism(left)
    GradedAutomorphism(right)
    assert calls == ["_eliminate"] * 3  # degree classes {3}, {2} and {1}
    calls.clear()
    reports = [strata.classify_res1(m) for m in m10]
    assert calls == ["_expand"] * 20  # the quartic, and no elimination
    assert {r.label for r in reports} == {strata.M10}


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
    sum, difference and exact division by a divisor whose content divides
    theirs build no Fraction in poly, since the division runs on primitive
    integer parts.  Any other exact division builds at most one, the ratio
    of the contents; a division without exact one per quotient term whose
    value the divisor's leading coefficient does not divide; normalized
    one per value that is not an integer."""
    f = parse_poly("x0^2 + 2*x0*x1 - 3*x1*x2 + 5*x2^2")
    g = parse_poly("x0^2 - x0*x2 + x1^2 + 3*x1*x2")
    product, other = f * g, parse_poly("x0^2 + x1^2")
    assert all(type(v) is int for h in (f, g, product) for v in h.raw.values())
    built = count_fractions_built_in_poly(monkeypatch)
    results = [f * g, f + g, f - g, product.try_exact_div(g),
               product.try_exact_div(-g), product.try_exact_div(other),
               (product * 6).try_exact_div(g * 3), (g * 2).divmod(f * 2)[0]]
    assert built == []
    assert results[3] == f and results[4] == -f and results[5] is None
    assert results[6] == f * 2 and results[7] == 1
    assert all(type(v) is int for h in results[:5] + results[6:]
               for v in h.raw.values())
    # a content that does not divide costs one Fraction, the ratio
    assert product.try_exact_div(f * 7) == g * Fraction(1, 7)
    assert built == [(1, 7)]
    built.clear()
    assert (product * 2).try_exact_div(f * Fraction(7, 3)) \
        == g * Fraction(6, 7)
    assert built == [(6, 7)]
    # a leading coefficient that does not divide a step's value ends an
    # exact division; without exact the step costs one Fraction, here 1/2
    # on the primitive parts, scaled by the content 3
    built.clear()
    assert (f * 3).try_exact_div(parse_poly("2*x0 + x1")) is None
    assert built == []
    assert parse_poly("3*x0").divmod(parse_poly("2*x0 + x1")) == (
        MultiPoly.constant(QQ, Fraction(3, 2)), parse_poly("-3/2*x1"))
    assert built == [(1, 2)]
    built.clear()
    assert (f * 3).normalized() == f
    assert other.normalized() == other and built == []
    assert parse_poly("2*x0 + x1").normalized() == parse_poly("x0 + 1/2*x1")
    assert built == [(1, 2)]


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
