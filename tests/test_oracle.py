"""The shared exact-algebra cores against sympy as an independent oracle.

``FormMatrix.determinant`` is compared with sympy's determinant over a
polynomial ring, ``matrices.act`` with sympy's product of the three
matrices, ``poly._eliminate`` / ``poly.solve_linear`` on raw values with
sympy's reduced row echelon form, ``MultiPoly.substitute`` /
``Form.restrict_to_line`` with a simultaneous substitution in sympy's
sparse polynomial ring, and
``MultiPoly.divmod`` on polynomials in x1 and on non-homogeneous
polynomials in x0, x1, x2 with the division algorithm of sympy's ring in
graded lex order, quotient and remainder, over GF(101) and QQ on inputs
drawn by hypothesis.  ``gcd.binary_roots`` is compared with sympy's factorization
mod p at primes from 3 to 2^61 - 1, on forms with repeated roots and the
root [1:0], and over QQ with 30-digit coefficients, where its roots are
lifted GF(p) roots in the rational root theorem's candidate order;
``gcd._linear_factors`` with sympy's factorization over QQ of forms with
30-digit coefficients, and ``gcd.lines_dividing_all`` through a point P
with it on forms over QQ singular at P (two lines through P, or one
squared, times a drawn form), where the pencil search runs.

``gcd.common_linear_factor`` decides most inputs by the rank of a conic's
symmetric matrix: a smooth conic refuses, a singular one finds the line
in the pencil through its singular point or as its square root.  It is
compared with the generic GCD path over GF(3), GF(101) and QQ, on
conics sharing a drawn line, squares of a line, conics whose two lines
are conjugate and triples of multiples of one product of two lines,
and its GCD and row-reduction calls are counted.  ``gcd._conic_rank`` is
compared with sympy's rank and determinant of the symmetric matrix, its
witness with the kernel or a row of that matrix, over GF(101),
GF(2^61 - 1) and QQ with 30-digit coefficients, and a smooth conic with
sympy's factorization over QQ.  sympy does not factor multivariate
polynomials over finite fields, so over GF(101) a smooth conic is
checked against a scan of every rational point for a singular one
instead.

``MultiPoly`` sums, differences, negatives and products, which run on raw
coefficient values, are compared with sympy's sparse polynomial ring over
GF(101), GF(2^61 - 1) and QQ with 30-digit coefficients, and products
over a parameter ring with the term-by-term definition.  On the same
domains the boxed ``terms`` view is checked against the raw storage it
shows: it rebuilds an equal polynomial with an equal hash, holds only
nonzero canonical scalars, and its sums and products are sympy
``Poly``'s.  ``MultiPoly.evaluate`` and ``Form.evaluate``, which run on
raw values and build no polynomial, are compared with sympy ``Poly.eval``
on the same domains at points given as ints, Fractions and scalars.  The
tangent-line test of the line search through a point is compared with
the generic pencil search on res1 determinants, built M11 quartics,
quartics singular at the point, points off the quartic and pairs of
forms.

``gcd.multivariate_gcd``, one exact division at the top degree and a
kernel search on ``_eliminate`` below it, is compared
with sympy's GCD up to a nonzero constant over GF(101), GF(2^61 - 1) and
QQ with 30-digit coefficients, binary forms in x1 and x2 whose shared
factor has the root [1:0] among them, as the pencil search hands them to
``gcd_fold``; and ``poly.kernel_vector`` on the raw rows that
``_eliminate`` reduces, as the GCD runs it, with the nullspace of sympy's
``DomainMatrix`` over GF(101) and QQ.  Over QQ ``MultiPoly.divmod``
divides primitive integer parts: exact and not, it is compared with the
Fraction loop it replaced, kept in the test as the reference, on
polynomials with Fraction values, contents other than 1 and negative
leading coefficients; and on such forms sharing a factor
``multivariate_gcd`` and ``gcd_fold``, which carry primitive integer
forms, with sympy's monic GCD in graded lex order.

Over QQ, where the elimination runs fraction-free on integer rows,
``_eliminate``, ``kernel_vector``, ``solve_linear`` and ``linear_rank`` are
compared exactly with sympy ``Matrix.rref()`` on integral, non-integral
and 30-digit rational entries, with rank deficiency, zero rows and zero
columns, and their raw results checked to be canonical.  The raw values
that the ring operations, ``substitute`` and ``try_exact_div`` store over
QQ, and the values of their boxed terms, are checked to be ints exactly
when integral and Fractions otherwise, never floats.

``MultiPoly.serialize`` and ``ParamScalar.as_text``, which print raw
values and cached monomial texts, are compared byte for byte with a
reference serializer that boxes every term and prints it through its
scalar's ``as_text``: over QQ with negative, fractional and 30-digit
coefficients, over GF(2^61 - 1), over the chart-minors parameter ring and
as binary forms in s and t.  ``PoincarePoly.serialize``, which prints
through the same serializer, is compared with the loop it replaced on
coefficients that are zero, +-1, negative or 40 digits long.

``parse_poly``, ``parse_form`` and ``parse_entry``, which read text into
term dicts, are compared with a reference parser that builds a polynomial
per atom, sum, product and power, on results and on the class and message
of each error, over QQ, GF(101) and GF(2^61 - 1).
``FormMatrix.determinant`` and ``maximal_minors``, one memoized Laplace
expansion, are compared with sympy's determinants on 4x4, 5x5, 5x4, 4x5
and 2x3 grids of linear forms with zeros at drawn positions, over QQ and
GF(101).
"""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from quarticmoduli import gcd, strata, verify  # noqa: E402
from quarticmoduli.betti import PoincarePoly  # noqa: E402
from quarticmoduli.field import (  # noqa: E402
    GF,
    QQ,
    FieldScalar,
    ParamRing,
    ParamScalar,
)
from quarticmoduli.gcd import (  # noqa: E402
    _conic_rank,
    _linear_factors,
    _pencil_line,
    _pencil_restriction_coefficients,
    binary_roots,
    common_linear_factor,
    gcd_fold,
    line_intersection,
    lines_dividing_all,
)
from quarticmoduli.matrices import (  # noqa: E402
    SHAPES,
    FormMatrix,
    act,
    is_stable_kronecker,
    make_matrix,
)
from quarticmoduli.poly import (  # noqa: E402
    _GUARDS,
    DEGREE_LIMIT,
    VARIABLES,
    BinaryForm,
    Form,
    MultiPoly,
    ParseError,
    PowerDegreeError,
    _eliminate,
    _Parser,
    coefficient_rows,
    exponent_terms,
    kernel_vector,
    linear_rank,
    monomials_of_degree,
    parse_entry,
    parse_form,
    parse_poly,
    solve_linear,
)

P = 101
DOMAINS = [GF(P), QQ]
SETTINGS = settings(max_examples=25, deadline=None, database=None,
                    derandomize=True)


def sympy_field(domain):
    return sympy.QQ if domain == QQ else sympy.GF(P)


def to_sympy(field, value):
    if field == sympy.QQ:
        value = Fraction(value)
        return field(value.numerator, value.denominator)
    return field(int(value))


def from_sympy(field, value):
    if field == sympy.QQ:
        return Fraction(int(value.numerator), int(value.denominator))
    return int(value) % P


def raw_values(domain):
    """Coefficients drawn for a domain, with zero made common."""
    if domain == QQ:
        nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    else:
        nonzero = st.integers(0, P - 1)
    return st.one_of(st.just(0), nonzero)


@st.composite
def form_grids(draw, domain, src=None, tgt=None):
    """A graded matrix of forms from src to tgt degrees, or n x n (n <= 4)
    with drawn source degrees in [0, 1] and target degrees in [-1, 0], so
    that each entry has a degree in [0, 2]; an entry of negative degree is
    zero."""
    if src is None:
        n = draw(st.integers(1, 4))
        degrees = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        src, tgt = draw(degrees), [-d for d in draw(degrees)]
    values = raw_values(domain)

    def form(degree):
        return MultiPoly(domain, {
            m: domain.scalar(draw(values)) for m in monomials_of_degree(degree)
        })

    return FormMatrix(src, tgt, [[form(s - t) if s >= t else
                                  MultiPoly.zero(domain) for t in tgt]
                                 for s in src])


@st.composite
def polys(draw, domain, degrees):
    """A polynomial with a drawn coefficient on every monomial whose total
    degree is in `degrees`."""
    values = raw_values(domain)
    return MultiPoly(domain, {
        m: domain.scalar(draw(values))
        for degree in degrees for m in monomials_of_degree(degree)
    })


@st.composite
def low_rank_matrices(draw, domain):
    """An m x n matrix (m, n <= 5) of rank at most r, as A (m x r) * B."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(1, min(m, n)))
    values = raw_values(domain)
    a = [[draw(values) for _ in range(r)] for _ in range(m)]
    b = [[draw(values) for _ in range(n)] for _ in range(r)]
    return [[domain.scalar(sum(a[i][k] * b[k][j] for k in range(r)))
             for j in range(n)] for i in range(m)]


def sympy_matrix(grid, domain):
    """A grid of polynomials as sympy's matrix over its polynomial ring."""
    field = sympy_field(domain)
    ring = field["x0", "x1", "x2"]
    rows = [[ring.ring.from_dict({e: to_sympy(field, c.value)
                                  for e, c in entry.terms.items()})
             for entry in row] for row in grid]
    return DomainMatrix(rows, (len(grid), len(grid[0])), ring)


def from_ring_element(domain, value):
    """The terms of an element of sympy's polynomial ring, as raw values."""
    return {e: from_sympy(sympy_field(domain), c) for e, c in value.items()}


def sympy_det(grid, domain):
    return from_ring_element(domain, sympy_matrix(grid, domain).det())


def sympy_ring(domain):
    """sympy's sparse polynomial ring in x0, x1, x2 over the domain's field,
    and its generators."""
    ring, *gens = sympy.ring("x0,x1,x2", sympy_field(domain))
    return ring, gens


def to_ring(ring, poly):
    return ring.from_dict({e: to_sympy(ring.domain, c.value)
                           for e, c in poly.terms.items()})


def raw_rows(rows, domain):
    """The canonical raw values of a matrix of scalars."""
    return [[domain.unbox(c) for c in row] for row in rows]


def sympy_rref(rows, domain):
    field = sympy_field(domain)
    shape = (len(rows), len(rows[0]))
    matrix = DomainMatrix([[to_sympy(field, c.value) for c in row]
                           for row in rows], shape, field)
    reduced, pivots = matrix.rref()
    return [[from_sympy(field, c) for c in row]
            for row in reduced.to_list()], list(pivots)


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_det_matches_sympy(domain, data):
    m = data.draw(form_grids(domain))
    ours = {e: c.value for e, c in m.determinant().terms.items()}
    assert ours == sympy_det(m.entries, domain)


def sample_path_act(domain):
    """The matrices of act on the sample path, an explicit example: a res0
    matrix with zero and one-term entries, g block-triangular on (3, 2, 2)
    with constant blocks and h constant on (1, 1, 1)."""
    res0 = [["x0^2 - 3*x1*x2", "0", "2*x2^2 + x0*x1"],
            ["x0", "x1 - 4*x2", "0"], ["-x2", "5*x0", "x0 + x1 + x2"]]
    g = [["7", "x0 - 2*x2", "3*x1"], ["0", "1", "6"], ["0", "-2", "5"]]
    h = [["2", "0", "-1"], ["4", "3", "0"], ["1", "1", "9"]]
    return (make_matrix((3, 2, 2), (1, 1, 1), res0, domain),
            make_matrix((3, 2, 2), (3, 2, 2), g, domain),
            make_matrix((1, 1, 1), (1, 1, 1), h, domain))


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@settings(SETTINGS, max_examples=12)
@given(data=st.data())
@example(data=sample_path_act)
def test_act_matches_sympy_product(domain, data):
    """act(g, a, h) is sympy's product of the three matrices, entry by
    entry, for g and h graded on the source and target degrees of a, with
    zero coefficients, entries and blocks drawn in; 12 examples keep it
    under 1 s.  An explicit example's data is a function of the domain
    that gives a, g and h."""
    if callable(data):
        a, g, h = data(domain)
    else:
        a = data.draw(form_grids(domain))
        g = data.draw(form_grids(domain, a.src_degrees, a.src_degrees))
        h = data.draw(form_grids(domain, a.tgt_degrees, a.tgt_degrees))
    ours = act(g, a, h)
    want = (sympy_matrix(g.entries, domain) * sympy_matrix(a.entries, domain)
            * sympy_matrix(h.entries, domain)).to_list()
    assert (ours.src_degrees, ours.tgt_degrees) == (a.src_degrees,
                                                    a.tgt_degrees)
    assert [[{e: c.value for e, c in entry.terms.items()} for entry in row]
            for row in ours.entries] == \
        [[from_ring_element(domain, entry) for entry in row] for row in want]


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_row_reduce_matches_sympy_rref(domain, data):
    """_eliminate reduces the raw rows in place to sympy's RREF."""
    rows = data.draw(low_rank_matrices(domain))
    reduced = raw_rows(rows, domain)
    pivots = _eliminate(reduced, domain.modulus)
    want_rows, want_pivots = sympy_rref(rows, domain)
    assert pivots == want_pivots
    assert reduced == want_rows


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_solve_linear_exactly_when_consistent(domain, data):
    matrix = data.draw(low_rank_matrices(domain))
    ncols = len(matrix[0])
    if data.draw(st.booleans()):
        x = [domain.scalar(data.draw(raw_values(domain))) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), domain.zero)
               for row in matrix]
    else:
        rhs = [domain.scalar(data.draw(raw_values(domain))) for _ in matrix]
    _, pivots = sympy_rref([row + [b] for row, b in zip(matrix, rhs)], domain)
    solution = solve_linear(raw_rows(matrix, domain),
                            raw_rows([rhs], domain)[0], domain.modulus)
    if ncols in pivots:
        assert solution is None
    else:
        assert solution is not None
        assert [sum((a * b for a, b in zip(row, solution)), domain.zero)
                for row in matrix] == rhs


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_substitute_matches_sympy(domain, data):
    f = data.draw(polys(domain, [data.draw(st.integers(0, 4))]))
    images = [data.draw(polys(domain, range(3))) for _ in range(3)]
    ring, gens = sympy_ring(domain)
    want = to_ring(ring, f).compose(
        [(x, to_ring(ring, g)) for x, g in zip(gens, images)])
    ours = {e: c.value for e, c in f.substitute(images).terms.items()}
    assert ours == {e: from_sympy(ring.domain, c) for e, c in want.items()}


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_restrict_to_line_matches_sympy(domain, data):
    degree = data.draw(st.integers(0, 4))
    f = data.draw(polys(domain, [degree]))
    line = data.draw(polys(domain, [1]))
    assume(line)
    ring, gens = sympy_ring(domain)
    field = ring.domain
    coeffs = [to_sympy(field, line.terms.get(m, domain.zero).value)
              for m in monomials_of_degree(1)]  # x0, x1, x2
    # the pivot (last variable with a nonzero coefficient) is solved for
    # and the other two become s = x1 and t = x2
    pivot = max(i for i in range(3) if coeffs[i])
    params = [i for i in range(3) if i != pivot]
    s, t = gens[1], gens[2]
    images = {gens[params[0]]: s, gens[params[1]]: t,
              gens[pivot]: (s * coeffs[params[0]] + t * coeffs[params[1]])
              * -field.revert(coeffs[pivot])}
    want = to_ring(ring, f).compose(list(images.items()))
    restricted = Form(f, degree).restrict_to_line(Form(line, 1))
    ours = {(0, degree - i, i): c.value
            for i, c in enumerate(restricted.coefficients) if c}
    assert ours == {e: from_sympy(field, c) for e, c in want.items()}


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_divmod_matches_sympy(domain, data):
    """MultiPoly.divmod, quotient and remainder, against the division
    algorithm of sympy's ring in x0, x1, x2 in graded lex order, x0 > x1 >
    x2: on polynomials in x1, as the root finder powers modulo one, and
    on non-homogeneous polynomials in x0, x1, x2, where graded lex and lex
    pick different leading terms."""
    values = raw_values(domain)
    ring = sympy.ring("x0,x1,x2", sympy_field(domain), sympy.grlex)[0]
    for variables, top in (((1,), 7), ((0, 1, 2), 4)):
        monos = [m for d in range(top + 1) for m in monomials_of_degree(d)
                 if all(i in variables for i in range(3) if m[i])]
        a, b = (MultiPoly(domain, {
            m: domain.scalar(data.draw(values))
            for m in data.draw(st.lists(st.sampled_from(monos), max_size=8,
                                        unique=True))}) for _ in range(2))
        if not b:
            continue
        want = to_ring(ring, a).div(to_ring(ring, b))
        for ours, theirs in zip(a.divmod(b), want):
            assert {e: c.value for e, c in ours.terms.items()} == \
                {e: from_sympy(ring.domain, c) for e, c in theirs.items()}


ROOT_PRIMES = [3, 101, 1000003, 2**31 - 1, 2**61 - 1]


@st.composite
def split_binary_forms(draw, p):
    """A binary form over GF(p): up to two lines a*x1 - b*x2, each with
    multiplicity 1 or 2 (a = 0 is the root [1:0]), times a nonzero
    quadratic form with drawn coefficients."""
    domain = GF(p)
    values = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
    x1, x2 = (MultiPoly.variable(domain, i) for i in (1, 2))
    form = MultiPoly.constant(domain, 1)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(values), draw(values)
        assume(a or b)
        form = form * (x1 * a - x2 * b) ** draw(st.integers(1, 2))
    rest = MultiPoly(domain, {(0, 2 - i, i): draw(values) for i in range(3)})
    assume(rest)
    return Form(form * rest, form.total_degree() + 2)


@pytest.mark.parametrize("p", ROOT_PRIMES)
@SETTINGS
@given(data=st.data())
def test_binary_roots_match_sympy_factor_list(p, data):
    """binary_roots against sympy's factorization of f(x, 1) mod p: the
    affine roots ascending with multiplicity, the root [1:0] as often as
    x2 divides f, and the degree of the factors of degree above one."""
    form = data.draw(split_binary_forms(p))
    roots, nonsplit = binary_roots(form)
    x = sympy.Symbol("x")
    affine = sympy.Poly.from_dict(
        {(e[1],): c for e, c in exponent_terms(form.poly.raw)}, x,
        modulus=p)
    _, factors = affine.factor_list()
    want = sorted((-c * pow(a, -1, p) % p, 1)
                  for factor, k in factors if factor.degree() == 1
                  for a, c in [factor.all_coeffs()] for _ in range(k))
    want = [(1, 0)] * (form.degree - affine.degree()) + want
    assert [(s.value, t.value) for s, t in roots] == want
    assert nonsplit == sum(factor.degree() * k for factor, k in factors
                           if factor.degree() > 1)


@st.composite
def split_binary_forms_qq(draw):
    """A binary form over QQ with 30-digit coefficients: up to three lines
    a*x1 - b*x2, each with multiplicity 1 or 2 (a = 0 is the root [1:0]),
    times a nonzero quadratic form with drawn coefficients."""
    values = st.one_of(st.just(0), st.just(1), st.integers(-10**30, 10**30))
    x1, x2 = (MultiPoly.variable(QQ, i) for i in (1, 2))
    form = MultiPoly.constant(QQ, 1)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(values), draw(values)
        assume(a or b)
        form = form * (x1 * a - x2 * b) ** draw(st.integers(1, 2))
    rest = MultiPoly(QQ, {(0, 2 - i, i): draw(qq_values("30-digit"))
                          for i in range(3)})
    assume(rest)
    return Form(form * rest, form.total_degree() + 2)


def candidate_order(r):
    """The rational root theorem's candidate order of a rational r."""
    return (abs(r.numerator), r.denominator, r < 0)


@SETTINGS
@given(data=st.data())
def test_binary_roots_over_qq_match_sympy_factor_list(data):
    """binary_roots over QQ against sympy's factorization of f(x, 1), with
    30-digit coefficients: the affine roots with multiplicity in candidate
    order, the root [1:0] as often as x2 divides f, and the degree of the
    factors of degree above one."""
    form = data.draw(split_binary_forms_qq())
    roots, nonsplit = binary_roots(form)
    x = sympy.Symbol("x")
    affine = sympy.Poly.from_dict(
        {(e[1],): to_sympy(sympy.QQ, c)
         for e, c in exponent_terms(form.poly.raw)},
        x, domain=sympy.QQ)
    _, factors = affine.factor_list()
    want = sorted((-from_sympy_rational(c) / from_sympy_rational(a)
                   for factor, k in factors if factor.degree() == 1
                   for a, c in [factor.all_coeffs()] for _ in range(k)),
                  key=candidate_order)
    want = [(1, 0)] * (form.degree - affine.degree()) + [(r, 1) for r in want]
    assert [(s.value, t.value) for s, t in roots] == want
    assert nonsplit == sum(factor.degree() * k for factor, k in factors
                           if factor.degree() > 1)


@st.composite
def split_forms_qq(draw):
    """A form over QQ: up to two lines with 30-digit coefficients, each with
    multiplicity 1 or 2, times a conic with 30-digit coefficients."""
    values = st.one_of(st.just(0), st.just(1), st.integers(-10**30, 10**30))
    form = MultiPoly.constant(QQ, 1)
    for _ in range(draw(st.integers(0, 2))):
        line = MultiPoly(QQ, {e: draw(values) for e in monomials_of_degree(1)})
        assume(line)
        form = form * line ** draw(st.integers(1, 2))
    conic = MultiPoly(QQ, {m: draw(qq_values("30-digit"))
                           for m in monomials_of_degree(2)})
    assume(conic)
    return Form(form * conic, form.total_degree() + 2)


@SETTINGS
@given(data=st.data())
def test_linear_factors_over_qq_match_sympy_factor_list(data):
    """_linear_factors over QQ against sympy's factorization of the form in
    x0, x1, x2, with 30-digit coefficients: the same lines, each made
    monic, with the same multiplicities."""
    form = data.draw(split_forms_qq())
    lines, _ = _linear_factors(form)
    ring, _ = sympy_ring(QQ)
    _, factors = to_ring(ring, form.poly).factor_list()
    want = sorted(
        sorted((e, from_sympy(sympy.QQ, c)) for e, c in factor.monic().items())
        for factor, k in factors if all(sum(e) == 1 for e in factor.monoms())
        for _ in range(k))
    assert sorted(sorted((e, Fraction(c))
                         for e, c in exponent_terms(line.poly.raw))
                  for line in lines) == want


@st.composite
def forms_singular_at_a_point_qq(draw):
    """(forms, P): one to three forms over QQ, each two lines through the
    rational point P, or a line through P squared, times a drawn form of
    degree at most 2, so every form is singular at P."""
    values = st.one_of(qq_values("integral"), qq_values("fractional"))
    point = [draw(values) for _ in range(3)]
    assume(any(point))
    a, b, c = point
    pool = []
    for _ in range(3):  # the line whose coefficients are P x v
        v = [draw(values) for _ in range(3)]
        line = MultiPoly(QQ, dict(zip(monomials_of_degree(1), (
            b * v[2] - c * v[1], c * v[0] - a * v[2], a * v[1] - b * v[0]))))
        assume(line)
        pool.append(line)
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        cofactor = draw(polys(QQ, [draw(st.integers(0, 2))]))
        assume(cofactor)
        f = pool[i] * pool[j] * cofactor
        forms.append(Form(f, f.total_degree()))
    return forms, tuple(QQ.scalar(x) for x in point)


@SETTINGS
@given(data=st.data())
def test_lines_through_a_singular_point_match_sympy_factor_list(data):
    """lines_dividing_all(forms, through=P) over QQ, on forms singular at P
    so that the pencil search runs, against sympy's factorization of each
    form: the monic linear factors vanishing at P, each with its least
    multiplicity across the forms."""
    forms, point = data.draw(forms_singular_at_a_point_qq())
    result = lines_dividing_all(forms, through=point)
    ring, _ = sympy_ring(QQ)
    at = [to_sympy(sympy.QQ, c.value) for c in point]
    least = None
    for form in forms:
        _, factors = to_ring(ring, form.poly).factor_list()
        counts = {}
        for factor, k in factors:
            if all(sum(e) == 1 for e in factor.monoms()) \
                    and factor(*at) == 0:
                key = tuple(sorted((e, from_sympy(sympy.QQ, c))
                                   for e, c in factor.monic().items()))
                counts[key] = counts.get(key, 0) + k
        least = counts if least is None else {
            key: min(k, counts[key]) for key, k in least.items()
            if key in counts}
    want = sorted(key for key, k in least.items() for _ in range(k))
    assert sorted(tuple(sorted((e, Fraction(c)) for e, c in
                               exponent_terms(line.poly.raw)))
                  for line in result.lines) == want


def generic_common_linear_factor(forms):
    """common_linear_factor without the conic test: the GCD fold, then the
    linear factors of a higher-degree fold checked by exact division."""
    nonzero = [f for f in forms if f]
    g = gcd_fold(nonzero)
    d = g.total_degree()
    if d == 0:
        return None
    if d == 1:
        return Form(g, 1)
    lines, _ = _linear_factors(Form(g, d))
    for line in lines:
        if all(f.poly.try_exact_div(line.poly) is not None for f in nonzero):
            return line.normalized()
    return None


@st.composite
def conics(draw, domain, line):
    """A conic with drawn coefficients, or `line` times a drawn line."""
    if draw(st.booleans()):
        return Form(draw(polys(domain, [2])), 2)
    return Form(line * draw(polys(domain, [1])), 2)


@pytest.mark.parametrize("domain", DOMAINS + [GF(3)], ids=repr)
@SETTINGS
@given(data=st.data())
def test_common_linear_factor_matches_generic_path(domain, data):
    """Conic triples that often share a drawn line L, in any order: L
    times drawn lines; drawn conics or L times a drawn line; c*L^2 with
    two of those; l1^2 - 2*l2^2, whose lines are conjugate (2 is no
    square in QQ, GF(3) or GF(101), as 101 = 5 mod 8), with two of those;
    and multiples of one product L*l of two lines, both shared."""
    def linear():
        return data.draw(polys(domain, [1]))

    def scalar():
        return domain.scalar(data.draw(raw_values(domain)))

    line = linear()
    shape = data.draw(st.sampled_from(
        ["shared line", "conics", "square", "conjugate", "one product"]))
    if shape == "shared line":
        triple = [Form(line * linear(), 2) for _ in range(3)]
    elif shape == "one product":
        product = line * linear()
        triple = [Form(product * scalar(), 2) for _ in range(3)]
    else:
        triple = [data.draw(conics(domain, line)) for _ in range(3)]
        if shape == "square":
            triple[0] = Form(line * line * scalar(), 2)
        elif shape == "conjugate":
            l1, l2 = linear(), linear()
            triple[0] = Form(l1 * l1 - l2 * l2 * 2, 2)
        triple = data.draw(st.permutations(triple))
    assume(any(triple))
    assert common_linear_factor(triple) == \
        generic_common_linear_factor(triple)


def _linear(domain, rng):
    while True:
        line = MultiPoly(domain, {m: domain.scalar(rng.randrange(-3, 4))
                                  for m in monomials_of_degree(1)})
        if line:
            return line


def built_blocks(domain):
    """2x3 linear blocks whose minors share a line: M01 blocks
    [[-l2, 0, l0], [l1, -l0, 0]] mixed by constant row and column
    operations, and the linear part of boundary normal forms."""
    rng = random.Random(3)
    zero = MultiPoly.zero(domain)
    for _ in range(15):
        l0, l1, l2 = (_linear(domain, rng) for _ in range(3))
        k = FormMatrix((2, 2), (1, 1, 1), [[-l2, zero, l0], [l1, -l0, zero]])
        g, h = (FormMatrix(d, d, [[MultiPoly.constant(
            domain, rng.randrange(-2, 3)) for _ in d] for _ in d])
            for d in (k.src_degrees, k.tgt_degrees))
        yield act(g, k, h)
        boundary = strata.boundary_matrix(Form(l0, 1), Form(l1, 1))
        yield boundary.submatrix([1, 2], [0, 1, 2])


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
def test_common_linear_factor_matches_generic_on_built_minors(domain):
    """Minors of the built blocks: every conic is singular, so the pencil
    through its singular point, its square root or the generic path
    decides them."""
    found = 0
    for block in built_blocks(domain):
        minors = block.maximal_minors()
        if not any(minors):
            continue
        assert all(_conic_rank(m)[0] < 3 for m in minors if m)
        want = generic_common_linear_factor(minors)
        assert common_linear_factor(minors) == want
        found += want is not None
    assert found >= 15


def test_common_linear_factor_work_counts(monkeypatch):
    """Exact counts: common_linear_factor runs no multivariate GCD on the
    minors of the stable built blocks, which the singular point or the
    square root of their first conic decides, nor in verify's chart-minor
    triples, and no row reduction on a smooth conic.  An unstable block
    whose minors are all multiples of one product of two lines goes
    through lines_dividing_all, whose linear factors take GCDs.  Every
    GCD, multivariate_gcd's and gcd_fold's alike, runs
    gcd._common_factor."""
    calls = {"gcd": 0, "row_reduce": 0}
    gcd_before, eliminate_before = gcd._common_factor, gcd._eliminate

    def counting_gcd(a, b):
        calls["gcd"] += 1
        return gcd_before(a, b)

    def counting_eliminate(rows, p):
        calls["row_reduce"] += 1
        return eliminate_before(rows, p)

    monkeypatch.setattr(gcd, "_common_factor", counting_gcd)
    monkeypatch.setattr(gcd, "_eliminate", counting_eliminate)
    for domain in DOMAINS:
        stable = 0
        for block in built_blocks(domain):
            if is_stable_kronecker(block):
                stable += 1
                assert common_linear_factor(block.maximal_minors())
        assert stable >= 20 and calls["gcd"] == 0
        x0, x1, x2 = (MultiPoly.variable(domain, i) for i in range(3))
        smooth = Form(x0 * x0 + x1 * x2, 2)
        assert common_linear_factor([smooth, Form(x0 * x1, 2)]) is None
        assert calls == {"gcd": 0, "row_reduce": 0}
    assert verify.verify_chart_minors(5).passed
    assert calls["gcd"] == 0


def _singular_point(conic):
    """A point of P2(GF(101)) where every partial derivative of the conic
    vanishes, or None; found by trying every point."""
    a, b, c, d, e, f = coefficient_rows([conic], 2)[0]
    points = [(1, y, z) for y in range(P) for z in range(P)] \
        + [(0, 1, z) for z in range(P)] + [(0, 0, 1)]
    for x, y, z in points:
        if (2 * a * x + b * y + c * z) % P == 0 \
                and (b * x + 2 * d * y + e * z) % P == 0 \
                and (c * x + e * y + 2 * f * z) % P == 0:
            return x, y, z
    return None


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_nonsingular_conic_is_irreducible(domain, data):
    conic = Form(data.draw(polys(domain, [2])), 2)
    assume(conic)
    if _conic_rank(conic)[0] < 3:
        return
    if domain == QQ:
        ring, _ = sympy_ring(domain)
        _, factors = to_ring(ring, conic.poly).factor_list()
        assert [(max(map(sum, f.monoms())), m) for f, m in factors] \
            == [(2, 1)]
    else:
        assert _singular_point(conic) is None


@st.composite
def res0_matrices(draw, domain):
    """A res0 matrix of drawn entries, or with the M01 linear block
    [[-l2, 0, l0], [l1, -l0, 0]] of drawn lines."""
    src, tgt = SHAPES["res0"]
    rows = [[draw(polys(domain, [s - t])) for t in tgt] for s in src]
    if draw(st.booleans()):
        l0, l1, l2 = (draw(polys(domain, [1])) for _ in range(3))
        zero = MultiPoly.zero(domain)
        rows[1:] = [[-l2, zero, l0], [l1, -l0, zero]]
    return FormMatrix(src, tgt, rows)


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_classify_res0_quartic_is_the_determinant(domain, data):
    a = data.draw(res0_matrices(domain))
    report = strata.classify_res0(a)
    stable = is_stable_kronecker(a.submatrix([1, 2], [0, 1, 2]))
    assert (report.label != strata.NOT_STABLE) == stable
    if report.label in (strata.M00, strata.M01):
        assert report.quartic == a.determinant()
        assert {e: c.value for e, c in report.quartic.poly.terms.items()} \
            == sympy_det([[e.poly for e in row] for row in a.entries], domain)
    elif stable:
        assert not a.determinant()


# ---- ring operations on raw values -----------------------------------

BIG_P = 2**61 - 1
RING_DOMAINS = [GF(P), GF(BIG_P), QQ]


def ring_values(domain):
    """Coefficients with zero made common: residues over GF(p), rationals
    with 30-digit numerators and denominators over QQ."""
    if domain == QQ:
        big = 10**30
        nonzero = st.builds(Fraction, st.integers(-big, big),
                            st.integers(1, big))
    else:
        nonzero = st.integers(1, domain.p - 1)
    return st.one_of(st.just(0), nonzero)


@st.composite
def sparse_polys(draw, domain):
    """Up to 8 terms of total degree at most 3."""
    monos = [m for d in range(4) for m in monomials_of_degree(d)]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=8, unique=True))
    values = ring_values(domain)
    return MultiPoly(domain, {m: domain.scalar(draw(values)) for m in chosen})


def ring_of(domain):
    field = sympy.QQ if domain == QQ else sympy.GF(domain.p)
    return sympy.ring("x0,x1,x2", field)[0]


def to_sympy_value(field, value):
    if field == sympy.QQ:
        return field(value.numerator, value.denominator)
    return field(int(value))


def canonical_terms(poly, domain):
    """The terms as raw values, checking that each is a nonzero boxed
    scalar of the domain whose value is its canonical raw value."""
    for c in poly.terms.values():
        assert isinstance(c, FieldScalar) and c.domain is domain and c
        if domain == QQ:
            canonical_raw([c.value])
        else:
            assert 0 < c.value < domain.p
    return {e: c.value for e, c in poly.terms.items()}


def sympy_terms(ring, value):
    if ring.domain == sympy.QQ:
        return {e: Fraction(int(c.numerator), int(c.denominator))
                for e, c in value.items()}
    p = ring.domain.mod
    return {e: int(c) % p for e, c in value.items()}


def one_term_example(f, g, c):
    """An explicit example's data: the domain's polynomials of two texts
    and a scalar."""
    return lambda domain: (parse_poly(f, domain), parse_poly(g, domain), c)


@pytest.mark.parametrize("domain", RING_DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
# one-term factors, constant or not, against several terms and each other;
# f * g and g * f put each on either side of a product
@example(data=one_term_example("7", "x0^2*x1 - 3*x1*x2 + 5", 4))
@example(data=one_term_example("-2*x0*x2", "x1^3 + x0*x1 - x2 + 1", -1))
@example(data=one_term_example("3*x1^2", "-5*x0*x2", 0))
@example(data=one_term_example("6", "x2^3", 2))
def test_multipoly_ring_operations_match_sympy(domain, data):
    if callable(data):
        f, g, c = data(domain)
    else:
        f = data.draw(sparse_polys(domain))
        g = data.draw(sparse_polys(domain))
        c = data.draw(ring_values(domain))
    ring = ring_of(domain)

    def lift(poly):
        return ring.from_dict({e: to_sympy_value(ring.domain, v.value)
                               for e, v in poly.terms.items()})

    sf, sg = lift(f), lift(g)
    sc = to_sympy_value(ring.domain, domain.scalar(c).value)
    cases = [
        (f * g, sf * sg),
        (f + g, sf + sg),
        (f - g, sf - sg),
        (-f, -sf),
        (f * c, sf * sc),
        (f * MultiPoly.zero(domain), ring.zero),  # a zero product
        (f - f, ring.zero),  # every term cancels
        ((f + g) + (-g), sf),  # the terms of g cancel
        (f * g - g * f, ring.zero),
    ]
    for ours, theirs in cases:
        assert canonical_terms(ours, domain) == sympy_terms(ring, theirs)


@pytest.mark.parametrize("domain", RING_DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_nonsingular_conic_exactly_when_determinant_nonzero(domain, data):
    """_conic_rank, evaluated on raw coefficients, gives rank 3 exactly
    when sympy's determinant of M = [[2a, b, c], [b, 2d, e], [c, e, 2f]]
    is nonzero, and sympy's rank of M otherwise: on conics with drawn
    coefficients, on products of two drawn lines and on squares of a
    drawn line.  A rank-2 witness is a nonzero kernel vector of M and a
    rank-1 witness a nonzero row of M."""
    values = ring_values(domain)

    def draw_form(degree):
        return MultiPoly(domain, {m: domain.scalar(data.draw(values))
                                  for m in monomials_of_degree(degree)})

    kind = data.draw(st.sampled_from(["drawn", "two lines", "square"]))
    if kind == "drawn":
        conic = draw_form(2)
    elif kind == "two lines":
        conic = draw_form(1) * draw_form(1)
    else:
        conic = draw_form(1) ** 2
    assume(conic)
    field = ring_of(domain).domain
    a, b, c, d, e, f = (to_sympy_value(field, conic.coefficient(m).value)
                        for m in monomials_of_degree(2))
    matrix = DomainMatrix([[2 * a, b, c], [b, 2 * d, e], [c, e, 2 * f]],
                          (3, 3), field)
    rank, witness = _conic_rank(Form(conic, 2))
    assert (rank == 3) == bool(matrix.det())
    assert rank == matrix.rank()
    if rank < 3:
        column = [to_sympy_value(field, domain.scalar(x).value)
                  for x in witness]
        assert any(column)
        if rank == 2:
            vector = DomainMatrix([[x] for x in column], (3, 1), field)
            assert not any((matrix * vector).to_Matrix())
        else:
            ca, cb, cc, cd, ce, cf = (conic.coefficient(m)
                                      for m in monomials_of_degree(2))
            rows = [[2 * ca, cb, cc], [cb, 2 * cd, ce], [cc, ce, 2 * cf]]
            assert [domain.scalar(x) for x in witness] in rows


def from_sympy_poly(spoly, domain):
    """The terms of a sympy Poly as raw values of the domain."""
    if domain == QQ:
        return {e: Fraction(int(c.p), int(c.q))
                for e, c in spoly.as_dict().items()}
    return {e: int(c) % domain.p for e, c in spoly.as_dict().items()}


@pytest.mark.parametrize("domain", RING_DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_boxed_terms_view_matches_raw_storage(domain, data):
    """The boxed ``terms`` view of the raw term storage rebuilds the same
    polynomial, with the same hash; each of its values is a nonzero
    canonical scalar of the domain; and the products and sums it shows
    are sympy's Poly products and sums."""
    f, g = data.draw(sparse_polys(domain)), data.draw(sparse_polys(domain))
    gens = sympy.symbols("x0 x1 x2")
    field = sympy.QQ if domain == QQ else sympy.GF(domain.p)

    def to_poly(poly):
        return sympy.Poly.from_dict(
            {e: to_sympy_value(field, c.value) for e, c in poly.terms.items()},
            gens, domain=field)

    product, total = f * g, f + g
    for poly in (f, g, product, total):
        rebuilt = MultiPoly(domain, poly.terms)
        assert rebuilt == poly and hash(rebuilt) == hash(poly)
    sf, sg = to_poly(f), to_poly(g)
    assert canonical_terms(product, domain) == from_sympy_poly(sf * sg, domain)
    assert canonical_terms(total, domain) == from_sympy_poly(sf + sg, domain)


@pytest.mark.parametrize("base", [GF(P), QQ], ids=repr)
@SETTINGS
@given(data=st.data())
def test_param_ring_products_match_term_by_term(base, data):
    """ParamScalar products, and MultiPoly products over a parameter ring,
    against the term-by-term definition on boxed scalars."""
    ring = ParamRing(base, ("a", "b"))
    values = raw_values(base)
    exps = [(i, j) for i in range(3) for j in range(3)]

    def element():
        chosen = data.draw(st.lists(st.sampled_from(exps), max_size=5,
                                    unique=True))
        return ParamScalar(ring, {e: base.scalar(data.draw(values))
                                  for e in chosen})

    def term_by_term(left, right, zero):
        out = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, zero) + c1 * c2
        return {e: c for e, c in out.items() if c}

    x, y = element(), element()
    assert (x * y).terms == term_by_term(x.terms, y.terms, base.zero)
    assert (x * y - y * x).terms == {}
    monos = monomials_of_degree(1)
    f = MultiPoly(ring, {m: element() for m in monos})
    g = MultiPoly(ring, {m: element() for m in monos})
    assert (f * g).terms == term_by_term(f.terms, g.terms, ring.zero)
    assert all(isinstance(c, ParamScalar) and c for c in (f * g).terms.values())


# ---- point evaluation on raw values ------------------------------------


def coordinates(domain):
    """A coordinate as an int, a Fraction or a FieldScalar, with zero made
    common: 30-digit numerators and denominators."""
    big = 10**30
    ints = st.integers(-big, big)
    fractions = st.builds(Fraction, ints, st.integers(1, big))
    if domain != QQ:
        fractions = fractions.filter(lambda v: v.denominator % domain.p)
    scalars = st.one_of(ints, fractions).map(domain.scalar)
    return st.one_of(st.just(0), ints, fractions, scalars)


def sympy_coordinate(domain, x):
    """A coordinate as sympy's value, the residue computed by sympy's GF(p)."""
    x = Fraction(x.value if isinstance(x, FieldScalar) else x)
    if domain == QQ:
        return sympy.Rational(x.numerator, x.denominator)
    field = sympy.GF(domain.p)
    return int(field(x.numerator) / field(x.denominator)) % domain.p


@pytest.mark.parametrize("domain", RING_DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_evaluate_matches_sympy_poly_eval(domain, data):
    """MultiPoly.evaluate, and Form.evaluate on the top-degree part, at a
    point given as ints, Fractions and FieldScalars, against sympy
    Poly.eval; evaluate builds no polynomial, and Form.evaluate refuses the
    all-zero point."""
    f = data.draw(sparse_polys(domain))
    point = [data.draw(coordinates(domain)) for _ in range(3)]
    degree = max(f.total_degree(), 0)
    top = Form(MultiPoly(domain, {e: c for e, c in f.terms.items()
                                  if sum(e) == degree}), degree)
    gens = sympy.symbols("x0 x1 x2")
    field = sympy.QQ if domain == QQ else sympy.GF(domain.p)
    at = tuple(sympy_coordinate(domain, x) for x in point)

    def sympy_value(poly):
        value = sympy.Poly.from_dict(
            {e: to_sympy_value(field, c.value) for e, c in poly.terms.items()},
            gens, domain=field).eval(at)
        if domain == QQ:
            return Fraction(int(value.p), int(value.q))
        return int(value) % domain.p

    built = []
    with pytest.MonkeyPatch.context() as patch:
        from_raw = MultiPoly.from_raw.__func__
        patch.setattr(MultiPoly, "from_raw", classmethod(
            lambda cls, *args: built.append(1) or from_raw(cls, *args)))
        value = f.evaluate(point)
        form_value = top.evaluate(point) if any(at) else None
    assert built == []
    assert isinstance(value, FieldScalar) and value.domain is domain
    assert value.value == sympy_value(f)
    if form_value is not None:
        assert form_value.value == sympy_value(top.poly)
    for zero in ([0, 0, 0], [Fraction(0), domain.zero, 0]):
        with pytest.raises(ValueError, match="all zero"):
            top.evaluate(zero)


# ---- the tangent-line test of the pencil search -----------------------


def generic_pencil_lines(forms, through, domain):
    """_pencil_lines without the tangent-line test: the GCD of the pencil
    restrictions and its rational roots."""
    point = [domain.unbox(c) for c in through]
    coeff_forms = [bf for f in forms if f for bf in
                   _pencil_restriction_coefficients(f, point) if bf]
    g = gcd_fold(coeff_forms)
    if g.total_degree() == 0:
        return [], 0
    roots, nonsplit = binary_roots(Form(g, g.total_degree()))
    return [_pencil_line(point, s, t, domain) for s, t in roots], nonsplit


def random_poly(domain, rng, degree, keep=lambda e: True):
    values = range(-3, 4) if domain == QQ else range(domain.p)
    return MultiPoly(domain, {m: domain.scalar(rng.choice(values))
                              for m in monomials_of_degree(degree) if keep(m)})


def random_point(domain, rng):
    while True:
        point = [domain.scalar(rng.randrange(-3, 4)) for _ in range(3)]
        if any(point):
            return tuple(point)


def line_through(point, domain, rng):
    """A nonzero line vanishing at the point: point x v for a random v."""
    while True:
        v = random_point(domain, rng)
        a, b, c = point
        coeffs = (b * v[2] - c * v[1], c * v[0] - a * v[2], a * v[1] - b * v[0])
        if any(coeffs):
            return MultiPoly(domain, dict(zip(monomials_of_degree(1),
                                              coeffs)))


def pencil_cases(domain, rng):
    """(forms, point, kind) inputs for the line search through a point."""
    cases = []
    for _ in range(6):
        m = random_res1(domain, rng)
        point = line_intersection(m[0, 0], m[1, 0])
        cases.append(([m.determinant()], point, "res1"))
    for _ in range(4):
        point = random_point(domain, rng)
        line = line_through(point, domain, rng)
        cases.append(([Form(line * random_poly(domain, rng, 3), 4)], point,
                      "line times cubic"))
        cases.append(([Form(line * line * random_poly(domain, rng, 2), 4)],
                      point, "squared line"))
        other = line_through(point, domain, rng)
        cases.append(([Form(line * other * random_poly(domain, rng, 2), 4)],
                      point, "two lines"))
    for _ in range(3):
        # every term has x2-degree at most 2: singular at (0 : 0 : 1)
        quartic = random_poly(domain, rng, 4, lambda e: e[2] <= 2)
        cases.append(([Form(quartic, 4)], (domain.zero, domain.zero,
                                           domain.one), "singular"))
    for _ in range(4):
        quartic = Form(random_poly(domain, rng, 4), 4)
        point = random_point(domain, rng)
        if quartic.evaluate(point):
            cases.append(([quartic], point, "off the quartic"))
    for _ in range(4):
        point = random_point(domain, rng)
        line = line_through(point, domain, rng)
        f = Form(line * random_poly(domain, rng, 3), 4)
        g = Form(line * random_poly(domain, rng, 2), 3)
        h = Form(random_poly(domain, rng, 4), 4)
        cases.append(([f, g], point, "two forms sharing a line"))
        cases.append(([f, h], point, "two forms"))
    return cases


def random_res1(domain, rng):
    src, tgt = SHAPES["res1"]
    return FormMatrix(src, tgt, [
        [random_poly(domain, rng, s - t) for t in tgt] for s in src])


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
def test_tangent_line_test_matches_generic_pencil_search(domain,
                                                         monkeypatch):
    rng = random.Random(11)
    generic_calls = []
    restriction = gcd._pencil_restriction_coefficients
    monkeypatch.setattr(gcd, "_pencil_restriction_coefficients",
                        lambda *args: generic_calls.append(1)
                        or restriction(*args))
    kinds = set()
    smooth = 0
    for forms, point, kind in pencil_cases(domain, rng):
        before = len(generic_calls)
        result = lines_dividing_all(forms, through=point)
        took_fallback = len(generic_calls) > before
        want = generic_pencil_lines(forms, point, domain)
        assert (result.lines, result.nonsplit_degree) == want, kind
        if kind == "singular":
            assert took_fallback
        if kind in ("res1", "off the quartic"):
            assert not took_fallback and want == ([], 0)
        if kind in ("line times cubic", "squared line"):
            assert want[0]
        if kind == "line times cubic" and Form(
                forms[0].poly.exact_div(want[0][0].poly), 3).evaluate(point):
            # the cubic is nonzero at the point: the quartic is smooth there
            assert not took_fallback
            smooth += 1
        kinds.add(kind)
    assert len(kinds) == 8 and smooth


# ---- the kernel GCD and the kernel vector ------------------------------


GCD_KINDS = ("shared", "shared mixed degree", "coprime", "coprime mixed degree",
             "equal", "zero", "binary")


@st.composite
def gcd_pairs(draw, domain, kind):
    """(a, b) = (g*a', g*b') with cofactors of degree 0 to 2 and a factor
    g of degree 0 to 4 (at most 2 for polynomials of mixed degree); a
    coprime pair has g = 1 and nonconstant cofactors, "equal" and "zero"
    set b = a or b = 0, and a "binary" pair is of forms in x1 and x2 alone
    whose g is x2 or x2^2, the root [1:0], times a form of degree 0 to 2."""
    homogeneous = "mixed" not in kind
    binary = kind == "binary"
    big = 10**30
    values = (st.builds(lambda n, d, sign: Fraction(sign * n, d),
                        st.integers(1, big), st.integers(1, big),
                        st.sampled_from((1, -1)))
              if domain == QQ else st.integers(1, domain.p - 1))

    def poly(low, high):
        degree = draw(st.integers(low, high))
        degrees = [degree] if homogeneous else range(degree + 1)
        return MultiPoly(domain, {m: domain.scalar(draw(values))
                                  for d in degrees
                                  for m in monomials_of_degree(d)
                                  if not (binary and m[0])})

    g = MultiPoly.constant(domain, 1)
    low = 1 if kind.startswith("coprime") else 0
    if binary:
        g = poly(0, 2) * MultiPoly.variable(domain, 2) ** draw(
            st.integers(1, 2))
    elif not low:
        g = poly(0, 4 if homogeneous else 2)
    a, b = g * poly(low, 2), g * poly(low, 2)
    if kind == "equal":
        b = a
    if kind == "zero":
        b = MultiPoly.zero(domain)
    return (b, a) if draw(st.booleans()) else (a, b)


def sympy_gcd_normalized(a, b, domain):
    """sympy's GCD over the domain's field, graded-lex monic."""
    ring = ring_of(domain)
    theirs = to_ring(ring, a).gcd(to_ring(ring, b))
    return MultiPoly(domain, {e: domain.scalar(v) for e, v in
                              sympy_terms(ring, theirs).items()}).normalized()


@pytest.mark.parametrize("kind", GCD_KINDS)
@pytest.mark.parametrize("domain", RING_DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_multivariate_gcd_matches_sympy(domain, kind, data):
    """Equal to sympy's GCD up to a nonzero constant: both sides are made
    graded-lex monic, as multivariate_gcd returns it."""
    a, b = data.draw(gcd_pairs(domain, kind))
    ours = gcd.multivariate_gcd(a, b)
    assert ours == sympy_gcd_normalized(a, b, domain)
    assert ours == ours.normalized()


GCD_CASES = [
    ("0", "0"),
    ("0", "2*x0*x1 - x2^2"),
    ("3*x0 + x1", "0"),
    ("5", "x0^2 + x1*x2"),
    ("7", "1/3"),
    ("x0^2 + x1*x2", "x0^2 + x1*x2"),
    ("x0^2 - x1*x2", "x1^2 - x0*x2"),  # coprime conics
    ("(x0^2 - 1)*(x1 + 2)", "(x0^2 - 1)*(x2 - 3)"),  # inhomogeneous
    ("(x0 + x1 + 1)^2*x2", "(x0 + x1 + 1)*(x2^2 + 1)"),
    ("x0^3 + x2", "x1*x0^3 + x1*x2"),  # one divides the other
]


@pytest.mark.parametrize("domain", RING_DOMAINS, ids=repr)
def test_multivariate_gcd_edge_cases_match_sympy(domain):
    for a_text, b_text in GCD_CASES:
        a, b = parse_poly(a_text, domain), parse_poly(b_text, domain)
        assert gcd.multivariate_gcd(a, b) == sympy_gcd_normalized(
            a, b, domain), (a_text, b_text)


# ---- QQ division and GCD on primitive integer parts ----------------------


def reference_divmod(a, b, exact=False):
    """The graded-lex division loop on Fraction values, each step times the
    inverse of the divisor's leading coefficient: the reference for
    MultiPoly.divmod over QQ, which divides primitive integer parts."""
    lead_d, lead = max(b.raw.items())
    inv = 1 / Fraction(lead)
    rest = [(k, -c) for k, c in b.raw.items() if k != lead_d]
    remainder, quotient, kept = dict(a.raw), {}, {}
    while remainder:
        lead_r = max(remainder)
        v = remainder.pop(lead_r)
        if not v:
            continue
        q = lead_r - lead_d
        if q < 0 or q & _GUARDS:  # lead_d does not divide lead_r
            if exact:
                return None
            kept[lead_r] = v
            continue
        quotient[q] = c = v * inv
        for k, w in rest:
            remainder[k + q] = c * w + remainder.get(k + q, 0)
    return MultiPoly.from_raw(QQ, quotient), MultiPoly.from_raw(QQ, kept)


def scaled_qq_poly(rng, degrees, homogeneous=False):
    """A nonzero polynomial over QQ with values n/d, d <= 4, times a
    content n/d other than 1, negative half the time, so that its leading
    coefficient is negative as often as not: of one degree drawn from
    `degrees` if homogeneous, else with terms of every degree up to it."""
    degree = rng.choice(degrees)
    terms = {m: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for d in ([degree] if homogeneous else range(degree + 1))
             for m in rng.sample(monomials_of_degree(d),
                                 min(d + 1, rng.randint(0, 3)))}
    terms[monomials_of_degree(degree)[0]] = Fraction(rng.randint(1, 5),
                                                     rng.randint(1, 4))
    content = Fraction(rng.randint(2, 12), rng.randint(1, 6))
    return MultiPoly(QQ, terms) * (content * rng.choice((1, -1)))


def is_canonical_qq(poly):
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for v in poly.raw.values())


@SETTINGS
@given(data=st.data())
def test_qq_divmod_matches_the_fraction_loop(data):
    """divmod, exact and not, on primitive integer parts gives the quotient
    and remainder of the Fraction loop, canonical: on exact products, on a
    product plus a drawn remainder, and on unrelated polynomials."""
    rng = data.draw(st.randoms(use_true_random=False))
    a, b, c = (scaled_qq_poly(rng, range(4)) for _ in range(3))
    for dividend in (b * c, b * c + a, a):
        for exact in (False, True):
            ours, want = dividend.divmod(b, exact), reference_divmod(
                dividend, b, exact)
            assert ours == want
            if ours is not None:
                assert all(map(is_canonical_qq, ours))
    assert (b * c).try_exact_div(b) == c


@SETTINGS
@given(data=st.data())
def test_qq_gcd_on_primitive_parts_matches_sympy(data):
    """multivariate_gcd and gcd_fold, which carry primitive integer forms
    over QQ and normalize once, equal sympy's monic GCD in graded lex order
    on forms that share a factor g, each a form times a content other than
    1, with Fraction values and negative leading coefficients as drawn."""
    rng = data.draw(st.randoms(use_true_random=False))
    g = scaled_qq_poly(rng, range(3), homogeneous=True)
    a, b, c = (g * scaled_qq_poly(rng, range(3), homogeneous=True)
               for _ in range(3))
    ring = sympy.ring("x0,x1,x2", sympy.QQ, sympy.grlex)[0]

    def monic(value):
        return MultiPoly(QQ, sympy_terms(ring, value.monic()))

    theirs = to_ring(ring, a).gcd(to_ring(ring, b))
    assert gcd.multivariate_gcd(a, b) == monic(theirs)
    assert gcd_fold([a, b, c]) == monic(theirs.gcd(to_ring(ring, c)))
    assert is_canonical_qq(gcd_fold([a, b, c]))


def eliminated_kernel_vector(matrix, domain):
    """kernel_vector of a matrix of scalars as multivariate_gcd runs it, on
    the raw rows that _eliminate reduces; its entries boxed."""
    rows = raw_rows(matrix, domain)
    x = kernel_vector(rows, _eliminate(rows, domain.modulus))
    return None if x is None else [domain.scalar(v) for v in x]


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_null_vector_matches_sympy_nullspace(domain, data):
    """A vector is returned exactly when sympy's nullspace is nonzero, and
    it is a nonzero kernel vector."""
    matrix = data.draw(low_rank_matrices(domain))
    field = sympy_field(domain)
    shape = (len(matrix), len(matrix[0]))
    nullspace = DomainMatrix([[to_sympy(field, c.value) for c in row]
                              for row in matrix], shape, field).nullspace()
    x = eliminated_kernel_vector(matrix, domain)
    assert (x is not None) == (nullspace.shape[0] > 0)
    if x is not None:
        assert any(x)
        assert all(not sum((a * b for a, b in zip(row, x)), domain.zero)
                   for row in matrix)


# ---- QQ linear algebra and raw values -----------------------------------

QQ_KINDS = ("integral", "fractional", "30-digit")


def qq_values(kind):
    """Rationals of one kind, with zero made common."""
    big = 10**30
    nonzero = {
        "integral": st.integers(-20, 20),
        "fractional": st.fractions(min_value=-5, max_value=5,
                                   max_denominator=7),
        "30-digit": st.builds(Fraction, st.integers(-big, big),
                              st.integers(1, big)),
    }[kind]
    return st.one_of(st.just(0), nonzero)


@st.composite
def qq_matrices(draw, kind, ncols=None):
    """An m x n matrix (m, n <= 6) over QQ of rank at most r, as A * B,
    with some rows and columns then set to zero."""
    m = draw(st.integers(1, 6))
    n = ncols or draw(st.integers(1, 6))
    r = draw(st.integers(1, min(m, n)))
    values = qq_values(kind)
    a = [[draw(values) for _ in range(r)] for _ in range(m)]
    b = [[draw(values) for _ in range(n)] for _ in range(r)]
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    return [[Fraction(0) if i in zero_rows or j in zero_cols
             else sum((a[i][k] * b[k][j] for k in range(r)), Fraction(0))
             for j in range(n)] for i in range(m)]


def from_sympy_rational(value):
    return Fraction(int(value.p), int(value.q))


def matrix_rref(values):
    """sympy ``Matrix.rref()`` of a matrix of Fractions: the reduced rows
    as Fractions and the pivot columns."""
    reduced, pivots = sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row]
         for row in values]).rref()
    return ([[from_sympy_rational(v) for v in reduced.row(i)]
             for i in range(reduced.rows)], list(pivots))


def canonical_raw(values):
    """Raw QQ values, each checked to be an int exactly when integral and
    otherwise a Fraction with denominator > 1."""
    values = list(values)
    assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for v in values)
    return values


def boxed_values(row):
    """The values of boxed QQ scalars, each checked to be its canonical raw
    value."""
    assert all(type(c) is FieldScalar and c.domain is QQ for c in row)
    return canonical_raw([c.value for c in row])


@pytest.mark.parametrize("kind", QQ_KINDS)
@SETTINGS
@given(data=st.data())
def test_qq_row_reduce_rank_and_kernel_match_sympy_rref(kind, data):
    """_eliminate on the raw rows is sympy's RREF entry for entry, in
    canonical raw values; linear_rank on the rows read as quadrics is its
    number of pivots; kernel_vector on the reduced rows is the first
    vector of sympy's nullspace, or None when the kernel is trivial."""
    values = data.draw(qq_matrices(kind, ncols=data.draw(st.sampled_from(
        [3, 6, None]))))
    want_rows, want_pivots = matrix_rref(values)
    reduced = [[QQ.unbox(v) for v in row] for row in values]
    pivots = _eliminate(reduced, None)
    assert pivots == want_pivots
    assert [canonical_raw(row) for row in reduced] == want_rows
    ncols = len(values[0])
    if ncols in (3, 6):
        degree = 1 if ncols == 3 else 2
        forms = [Form(MultiPoly(QQ, dict(zip(monomials_of_degree(degree),
                                             row))), degree)
                 for row in values]
        assert linear_rank(forms, degree) == len(want_pivots)
    nullspace = sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row]
         for row in values]).nullspace()
    x = kernel_vector(reduced, pivots)
    if not nullspace:
        assert x is None
    else:
        assert canonical_raw(x) == [from_sympy_rational(v)
                                    for v in nullspace[0]]


@pytest.mark.parametrize("kind", QQ_KINDS)
@SETTINGS
@given(data=st.data())
def test_qq_solve_linear_matches_sympy_rref(kind, data):
    """solve_linear is None exactly when the augmented RREF has a pivot in
    its last column, and otherwise the solution read off that RREF with
    the free variables set to zero."""
    values = data.draw(qq_matrices(kind))
    ncols = len(values[0])
    if data.draw(st.booleans()):
        x = [data.draw(qq_values(kind)) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0))
               for row in values]
    else:
        rhs = [Fraction(data.draw(qq_values(kind))) for _ in values]
    want_rows, want_pivots = matrix_rref(
        [row + [b] for row, b in zip(values, rhs)])
    solution = solve_linear([[QQ.unbox(v) for v in row] for row in values],
                            [QQ.unbox(b) for b in rhs], None)
    if want_pivots and want_pivots[-1] == ncols:
        assert solution is None
    else:
        want = [Fraction(0)] * ncols
        for row, col in zip(want_rows, want_pivots):
            want[col] = row[ncols]
        assert canonical_raw(solution) == want


def assert_canonical_raw(poly):
    """Each raw value is an int exactly when it is integral, otherwise a
    Fraction with denominator > 1, and so is each boxed value."""
    canonical_raw(poly.raw.values())
    boxed_values(poly.terms.values())


@st.composite
def mixed_qq_polys(draw, max_degree=3):
    """Up to 8 terms of total degree at most max_degree, with integral,
    non-integral and 30-digit rational coefficients."""
    monos = [m for d in range(max_degree + 1) for m in monomials_of_degree(d)]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=8, unique=True))
    values = st.one_of(*(qq_values(kind) for kind in QQ_KINDS))
    return MultiPoly(QQ, {m: draw(values) for m in chosen})


@SETTINGS
@given(data=st.data())
def test_qq_raw_values_are_ints_exactly_when_integral(data):
    f, g = data.draw(mixed_qq_polys()), data.draw(mixed_qq_polys())
    c = data.draw(st.one_of(*(qq_values(kind) for kind in QQ_KINDS)))
    images = [data.draw(mixed_qq_polys(max_degree=1)) for _ in range(3)]
    results = [f, g, f + g, f - g, -f, f * g, f * c, f * g - g * f,
               f.substitute(images), f * (g + 1) - f * g]
    if g:
        results.append((f * g).try_exact_div(g))
        q = f.try_exact_div(g)
        if q is not None:
            results.append(q)
    for poly in results:
        assert_canonical_raw(poly)
    if g:
        assert (f * g).try_exact_div(g) == f
    # an integral value stored as an int or as a Fraction is one polynomial
    k = data.draw(st.integers(-10**30, 10**30))
    e = data.draw(st.sampled_from(monomials_of_degree(2)))
    as_int = MultiPoly(QQ, {e: k})
    as_fraction = MultiPoly(QQ, {e: Fraction(k)})
    assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
    assert as_int == MultiPoly(QQ, {e: Fraction(2 * k, 2)})
    assert_canonical_raw(as_fraction)


# ---- the serializers against the boxed reference -------------------------


def boxed_text(terms, variables):
    """Reference text of (boxed coefficient, exponent tuple) pairs in
    order, as the serializers printed when they boxed every term: each
    coefficient through its scalar's as_text, or a ParamScalar's through
    boxed_param_text, and each monomial built from its exponents."""
    parts = []
    for c, e in terms:
        factors = [f"{v}^{k}" if k > 1 else v
                   for v, k in zip(variables, e) if k]
        text = boxed_param_text(c) if isinstance(c, ParamScalar) \
            else c.as_text()
        if " " in text:
            text = f"({text})"
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if factors and text == "1":
            body = "*".join(factors)
        elif factors:
            body = text + "*" + "*".join(factors)
        else:
            body = text
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts) if parts else "0"


def boxed_param_text(s):
    """The reference text of a ParamScalar: its terms by descending
    exponent tuple."""
    terms = s.terms
    return boxed_text([(terms[e], e) for e in sorted(terms, reverse=True)],
                      s.domain.names)


def boxed_poly_text(f, variables=("x0", "x1", "x2")):
    """The reference text of a polynomial: its terms in descending graded
    lex order, read off the exponent triples."""
    terms = f.terms
    order = sorted(terms, key=lambda e: (sum(e), e), reverse=True)
    return boxed_text([(terms[e], e) for e in order], variables)


CHART_RING = ParamRing(QQ, ("alpha", "beta", "a", "b", "c", "d"))
SERIALIZED = ["QQ", "GF(2^61 - 1)", "chart ring", "binary GF(101)",
              "binary QQ"]


@pytest.mark.parametrize("kind", SERIALIZED)
@SETTINGS
@given(data=st.data())
def test_serializers_match_the_boxed_reference(kind, data):
    """MultiPoly.serialize and ParamScalar.as_text, which print raw values
    with cached monomial texts, byte for byte against the reference that
    boxes every term: over QQ with negative, fractional and 30-digit
    coefficients, over GF(2^61 - 1), over the chart-minors parameter ring,
    whose coefficients are sums printed in parentheses, and as binary
    forms printed in s and t."""
    def term_dict(exps, values, size=6):
        chosen = data.draw(st.lists(st.sampled_from(exps), max_size=size,
                                    unique=True))
        return {e: data.draw(values) for e in chosen}

    triples = [(a, b, c) for a in range(4) for b in range(4)
               for c in range(4)]
    rationals = st.one_of(*(qq_values(k) for k in QQ_KINDS))
    if kind == "QQ":
        f = MultiPoly(QQ, term_dict(triples, rationals))
    elif kind == "GF(2^61 - 1)":
        f = MultiPoly(GF(2**61 - 1), term_dict(
            triples, st.integers(-2**62, 2**62)))
    elif kind == "chart ring":
        sextuples = [e for e in itertools.product(range(3), repeat=6)
                     if sum(e) <= 2]
        f = MultiPoly(CHART_RING, {
            e: ParamScalar(CHART_RING, term_dict(sextuples, rationals, 3))
            for e in term_dict(triples, st.just(0), 4)})
        for c in f.terms.values():
            assert c.as_text() == boxed_param_text(c)
    else:
        domain = GF(P) if kind == "binary GF(101)" else QQ
        d = data.draw(st.integers(0, 4))
        f = BinaryForm(MultiPoly(domain, term_dict(
            [(0, d - i, i) for i in range(d + 1)],
            raw_values(domain) if domain.modulus else rationals)), d)
        assert f.serialize() == boxed_poly_text(f, ("x0", "s", "t"))
        assert "x1" not in f.serialize() and "x2" not in f.serialize()
        return
    assert f.serialize() == boxed_poly_text(f)


def reference_poincare_text(coefficients):
    """The text of a Poincare polynomial as PoincarePoly printed it with
    its own loop, before it printed through the shared serializer."""
    parts = []
    for i, c in enumerate(coefficients):
        if not c:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mono = "q" if i == 1 else f"q^{i}"
            term = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from([0, 0, 1, -1]),
                          st.integers(-20, 20),
                          st.integers(-10**40, 10**40)), max_size=12))
def test_poincare_serialize_matches_its_former_loop(coefficients):
    """PoincarePoly.serialize against its former loop, on zeros, units,
    negative values and 40-digit values."""
    assert PoincarePoly(coefficients).serialize() \
        == reference_poincare_text(coefficients)


# ---- the parser against the polynomial-building reference -----------------


class ReferenceParser:
    """The parser as it was before it read text into term dicts: the same
    grammar, each atom, sum, product and power built as a MultiPoly, with
    the one size rule written out on its own: an exponent of over 4,300
    digits is refused before int() reads it (Domain.parse refuses such a
    literal); a product or power above max_degree, or of degree 2^31 or
    more, before it is multiplied; and over QQ a sum, product or power
    with a coefficient of over 4,300 digits, a power of one term before it
    is computed when its digit count or exponent shows it."""

    def __init__(self, text, domain, max_degree=None):
        self.tokens = _Parser._tokenize(text)
        self.pos = 0
        self.domain = domain
        self.max_degree = max_degree

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        try:
            poly = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deeply") from None
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return poly

    def check_degree(self, what, degree):
        shown = degree if degree < DEGREE_LIMIT else ">= 2^31"
        if self.max_degree is not None and degree > self.max_degree:
            raise PowerDegreeError(f"a {what} of degree {shown}")
        if degree >= DEGREE_LIMIT:
            raise ParseError(f"a {what} of degree {shown}")

    def too_long(self, start):
        text = "".join(self.tokens[start:self.pos])
        return ParseError(f"{text!r} has over 4300 digits")

    def check_digits(self, start, poly):
        if self.domain == QQ and any(
                max(abs(c.value.numerator), c.value.denominator) >= 10**4300
                for c in poly.terms.values()):
            raise self.too_long(start)
        return poly

    def expr(self):
        start, sign = self.pos, 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        poly = self.term()
        if sign < 0:
            poly = -poly
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    sign = -sign
            rhs = self.term()
            poly = poly + (rhs if sign > 0 else -rhs)
        return self.check_digits(start, poly)

    def term(self):
        start, poly = self.pos, self.factor()
        while self.peek() == "*":
            self.next()
            right = self.factor()
            self.check_degree("product", max(poly.total_degree(), 0)
                              + max(right.total_degree(), 0))
            poly = self.check_digits(start, poly * right)
        return poly

    def factor(self):
        start, base = self.pos, self.atom()
        if self.peek() != "^":
            return base
        self.next()
        tok = self.next()
        if tok is None or not tok.isdecimal():
            raise ParseError("expected integer exponent after '^'")
        if len(tok) > 4300:
            raise ParseError(f"{tok!r} has over 4300 digits")
        n = int(tok)
        if not base:
            return base ** n
        self.check_degree("power", n * base.total_degree())
        if len(base.terms) > 1:
            power = MultiPoly.constant(self.domain, 1)
            for _ in range(n):
                power = self.check_digits(start, power * base)
            return power
        if self.domain == QQ:
            [c] = base.terms.values()
            size = max(abs(c.value.numerator), c.value.denominator)
            # size^n >= 2^14285 > 10^4300 and size >= 10^(digits - 1)
            if size > 1 and (n >= 14285 or n * (len(str(size)) - 1) >= 4300):
                raise self.too_long(start)
        return self.check_digits(start, base ** n)

    def atom(self):
        tok = self.next()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            poly = self.expr()
            if self.next() != ")":
                raise ParseError("missing closing parenthesis")
            return poly
        if tok == "-":
            return -self.atom()
        if tok in VARIABLES:
            return MultiPoly.variable(self.domain, VARIABLES.index(tok))
        if tok[0].isdigit():
            try:
                return MultiPoly.constant(self.domain, self.domain.parse(tok))
            except ValueError as exc:
                if str(exc) == f"{tok!r} has over 4300 digits":
                    raise ParseError(str(exc)) from exc  # names the literal
                raise ParseError(f"bad number {tok!r}: {exc}") from exc
        raise ParseError(f"unexpected token {tok!r}")


def reference_homogeneous_form(poly, text, expected_degree):
    if not poly:
        return Form(poly, expected_degree if expected_degree is not None else 0)
    if not poly.is_homogeneous():
        raise ParseError(f"inhomogeneous polynomial: {text!r}")
    degree = poly.total_degree()
    if expected_degree is not None and degree != expected_degree:
        raise ParseError(
            f"degree mismatch: expected {expected_degree}, got {degree}")
    return Form(poly, degree)


def reference_parse(kind, text, domain, degree):
    """What parse_poly, parse_form or parse_entry gave on the reference."""
    if kind == "poly":
        return ReferenceParser(text, domain).parse()
    if kind == "entry":
        return reference_homogeneous_form(
            ReferenceParser(text, domain, degree).parse(), text, None)
    try:
        poly = ReferenceParser(text, domain, degree).parse()
    except PowerDegreeError as exc:
        raise PowerDegreeError(f"degree mismatch: expected {degree}, "
                               f"got {exc}") from None
    return reference_homogeneous_form(poly, text, degree)


def package_parse(kind, text, domain, degree):
    if kind == "poly":
        return parse_poly(text, domain)
    if kind == "entry":
        return parse_entry(text, degree, domain)
    return parse_form(text, degree, domain)


def parse_outcome(parse, *args):
    """The class and text of the error, or the class, degree, terms and
    text of the result."""
    try:
        f = parse(*args)
    except Exception as exc:  # the error is what is compared
        return type(exc), str(exc)
    return type(f), getattr(f, "degree", None), f.raw, f.serialize()


PARSE_DOMAINS = [QQ, GF(P), GF(BIG_P)]


@st.composite
def expression_texts(draw, depth=3):
    """Text in the parser's grammar, spaced at random: variables, integer
    and fractional literals (zero, negative and 40-digit ones among them),
    sums, differences, products, small powers, parentheses and unary
    minus; or a short run of its characters, well formed or not."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.one_of(
            st.sampled_from(VARIABLES),
            st.integers(0, 12).map(str),
            st.integers(0, 10**40).map(str),
            st.fractions(0, 7, max_denominator=6).map(str)))
    space = draw(st.sampled_from(["", " "]))
    kind = draw(st.sampled_from(["+", "-", "*", "^", "()", "neg", "noise"]))
    if kind == "noise":
        return draw(st.text("x0123+-*^()/ ", max_size=10))
    left = draw(expression_texts(depth - 1))
    if kind == "^":
        return f"({left}){space}^{space}{draw(st.integers(0, 4))}"
    if kind == "()":
        return f"({left})"
    if kind == "neg":
        return f"-{space}{left}"
    right = draw(expression_texts(depth - 1))
    return f"{left}{space}{kind}{space}{right}"


@pytest.mark.parametrize("kind", ["poly", "form", "entry"])
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(text=expression_texts(), domain=st.sampled_from(PARSE_DOMAINS),
       degree=st.one_of(st.none(), st.integers(0, 4)))
@example(text="2^999999999*x0", domain=GF(P), degree=1)
@example(text="2^999999999*x0", domain=QQ, degree=1)
@example(text="(x0 - x0)^999999999", domain=QQ, degree=2)
@example(text="(-1)^999999999*x1", domain=QQ, degree=1)
@example(text="(-1)^999999999*x1", domain=GF(BIG_P), degree=1)
@example(text="x0^2147483648", domain=QQ, degree=4)
@example(text="9" * 5000 + "*x0", domain=QQ, degree=1)
@example(text="1/0*x0", domain=QQ, degree=1)
@example(text="1/101*x0", domain=GF(P), degree=1)
@example(text="3/2*x0", domain=GF(P), degree=1)
@example(text="x0^3 - x0^3 + x1^2", domain=QQ, degree=2)
@example(text="x0*x0*x0 - x0*x0*x0 + x1^2", domain=QQ, degree=2)
@example(text="x0*(x0 + x1)*x2*0", domain=QQ, degree=2)
@example(text="9" * 4300 + "*" + "9" * 4300 + "*x0", domain=QQ, degree=1)
@example(text="9" * 4300 + "*" + "9" * 4300 + "*x0", domain=GF(P), degree=1)
@example(text="(x0 + x1", domain=QQ, degree=1)
@example(text="x0 + x1)", domain=QQ, degree=1)
@example(text="x3", domain=QQ, degree=1)
@example(text="(x0^2147483647 - x0^2147483647)*x0", domain=QQ, degree=2)
@example(text="101*x0^2147483647*x0", domain=GF(P), degree=2)
@example(text="(101*x0 + x1)^2", domain=GF(P), degree=2)
@example(text="(2/3*x0 - 1/3*x1)^3", domain=QQ, degree=3)
@example(text="x0^" + "1" * 5000, domain=QQ, degree=1)
@example(text="(x0*x1)^" + "9" * 4300, domain=QQ, degree=2)
@example(text="x0^2147483647*x0", domain=GF(P), degree=None)
@example(text="2^14284*x0", domain=QQ, degree=1)
@example(text="2^14285*x0", domain=QQ, degree=1)
@example(text="(3/2)^999999999*x0", domain=QQ, degree=1)
@example(text="(" + "7" * 4000 + "*x0)^3", domain=QQ, degree=3)
@example(text="(" + "7" * 4000 + "*x0 + x1)^3", domain=QQ, degree=3)
@example(text="(" + "7" * 4000 + "*x0 + x1)^3", domain=GF(P), degree=3)
@example(text="(" + "7" * 4000 + "*x0 + x1)^3*x2", domain=QQ, degree=4)
@example(text="9" * 4300 + "*x0 + " + "9" * 4300 + "*x0", domain=QQ,
         degree=1)
def test_parser_matches_the_reference(kind, text, domain, degree):
    """parse_poly, parse_form and parse_entry, which read text into term
    dicts and build one polynomial, give what the reference that built a
    polynomial per atom, sum, product and power gave: the same result, or
    an error of the same class with the same message.  The examples are
    the refusals: powers of constants refused over QQ and reduced mod p,
    a power of a zero base, the degree bound, a literal of over 4,300
    digits, refused by its text before int() reads it, a zero or non-invertible denominator, the refusal of a high
    power or product before a cancellation, a product of two 4,300-digit
    literals, refused over QQ and reduced mod p, unbalanced parentheses,
    an unknown variable, terms that cancel or vanish mod p before a
    product or a power, an exponent of over 4,300 digits, a degree of
    2^31 or more too long to print, and a constant power, a power of one
    or more terms and a sum each on either side of 4,300 digits."""
    assert (parse_outcome(package_parse, kind, text, domain, degree)
            == parse_outcome(reference_parse, kind, text, domain, degree))


def test_parse_form_builds_one_polynomial(monkeypatch):
    """A six-term quadric is read into one term dict and built once; the
    reference builds 41 polynomials for it."""
    text = "2*x0^2 - 3*x0*x1 + 1*x0*x2 - 2*x1^2 + 3*x1*x2 - 1*x2^2"
    built = []
    from_raw = MultiPoly.from_raw.__func__
    monkeypatch.setattr(MultiPoly, "from_raw", classmethod(
        lambda cls, *args: built.append(1) or from_raw(cls, *args)))
    form = parse_form(text, 2, QQ)
    assert len(built) == 1
    built.clear()
    assert reference_parse("form", text, QQ, 2) == form
    assert len(built) == 41


# ---- the shared expansion against sympy's determinant ----------------------


@st.composite
def linear_grids(draw, domain, nrows, ncols):
    """An nrows x ncols grid of linear forms, a drawn set of them zero."""
    values = raw_values(domain)
    zeros = draw(st.sets(st.integers(0, nrows * ncols - 1)))
    return [[MultiPoly(domain, {} if i * ncols + j in zeros else {
        m: draw(values) for m in monomials_of_degree(1)})
        for j in range(ncols)] for i in range(nrows)]


@pytest.mark.parametrize("shape", [(4, 4), (5, 5), (5, 4), (4, 5), (2, 3)],
                         ids=str)
@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_det_and_maximal_minors_match_sympy(domain, shape, data):
    """det of a square grid, and the signed maximal minors of an (n+1) x n
    or n x (n+1) matrix, which share one memoized Laplace expansion, are
    sympy's determinants of the grid and of its submatrices, with zeros at
    drawn positions."""
    nrows, ncols = shape
    grid = data.draw(linear_grids(domain, nrows, ncols))
    m = FormMatrix([1] * nrows, [0] * ncols, grid)
    if nrows == ncols:
        assert {e: c.value for e, c in m.determinant().terms.items()} \
            == sympy_det(grid, domain)
        return
    for j, minor in enumerate(m.maximal_minors()):
        sub = ([row[:j] + row[j + 1:] for row in grid] if nrows < ncols
               else grid[:j] + grid[j + 1:])
        want = sympy_det(sub, domain)
        if j % 2:
            want = {e: -c if domain == QQ else -c % P for e, c in want.items()}
        assert {e: c.value for e, c in minor.terms.items()} == want
        assert minor.degree == min(nrows, ncols)
