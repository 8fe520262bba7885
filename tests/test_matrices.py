import itertools
import random
import re
import signal
import time
from unittest import mock

import pytest

from quarticmoduli.degeneration import (
    DEFORM_SRC,
    DEFORM_TGT,
    make_blowup_chart_point,
    tangent_quartic,
)
from quarticmoduli.field import GF, QQ, FieldMismatchError, ParamRing
from quarticmoduli.matrices import (
    SHAPES,
    DegreeError,
    FormMatrix,
    GradedAutomorphism,
    act,
    is_stable_kronecker,
    make_matrix,
    matrix_from_json_dict,
    random_graded_automorphism,
    random_form,
    random_matrix,
)
from quarticmoduli.poly import (
    Form,
    MultiPoly,
    exponent_terms,
    monomials_of_degree,
    parse_form,
    parse_poly,
)


def bordered_example():
    return make_matrix(
        (3, 2, 2),
        (1, 1, 1),
        [
            ["x1^2", "0", "0"],
            ["-x2", "0", "x0"],
            ["x1", "-x0", "0"],
        ],
    )


def test_make_matrix_degree_validation():
    m = bordered_example()
    assert m[0, 0].degree == 2
    assert m[1, 0].degree == 1
    with pytest.raises(DegreeError):
        make_matrix((3, 2, 2), (1, 1, 1), [
            ["x0^2", "0", "0"],
            ["x0^2", "0", "x0"],  # degree 2 where 1 is required
            ["x1", "-x0", "0"],
        ])


@pytest.mark.parametrize("rows, message", [
    ([["x0", "x1^3"], ["x1", "x2^3"], ["x2", "0"]],
     "row count does not match src_degrees"),
    ([["x0", "x1^3", "x2"], ["x1", "x2^3"]], r"column count mismatch in row 0"),
    ([["x0", "x1^3"], ["x1"]], r"column count mismatch in row 1"),
])
def test_make_matrix_refuses_a_grid_of_another_shape(rows, message):
    with pytest.raises(DegreeError, match=message):
        make_matrix((3, 3), (2, 0), rows)


def test_res1_shape():
    m = make_matrix((3, 3), (2, 0), [["x0", "x1^3"], ["x1", "x2^3"]])
    assert m[0, 0].degree == 1
    assert m[0, 1].degree == 3


def test_determinant_of_bordered_matrix():
    # det [[q0,q1,q2],[-x2,0,x0],[x1,-x0,0]] = x0*(x0*q0 + x1*q1 + x2*q2)
    m = make_matrix(
        (3, 2, 2),
        (1, 1, 1),
        [
            ["x0^2", "x1*x2", "x2^2"],
            ["-x2", "0", "x0"],
            ["x1", "-x0", "0"],
        ],
    )
    q = [parse_poly(t) for t in ("x0^2", "x1*x2", "x2^2")]
    x = [parse_poly(v) for v in ("x0", "x1", "x2")]
    expected = x[0] * (x[0] * q[0] + x[1] * q[1] + x[2] * q[2])
    assert m.determinant().poly == expected


def test_determinant_zero_for_boundary_matrix():
    m = make_matrix(
        (3, 2, 2),
        (1, 1, 1),
        [
            ["0", "-x2*(2*x1 + 3*x2)", "x1*(2*x1 + 3*x2)"],
            ["-x2", "0", "x0"],
            ["x1", "-x0", "0"],
        ],
    )
    assert not m.determinant()


def test_determinant_one_by_one():
    m = make_matrix((3,), (1,), [["x0*x1"]])
    assert m.determinant().poly == parse_poly("x0*x1")


def test_determinant_rejects_non_square():
    m = make_matrix((2, 2), (1, 1, 1), [
        ["x0", "x1", "x2"],
        ["x1", "x2", "x0"],
    ])
    with pytest.raises(DegreeError):
        m.determinant()


def test_maximal_minors_laplace_identity():
    dom = GF(101)
    rng = random.Random(3)
    for _ in range(20):
        m = random_matrix("res0", dom, rng=rng)
        k = m.submatrix([1, 2], [0, 1, 2])
        minors = k.maximal_minors()
        assert all(type(mm) is Form and mm.degree == 2 for mm in minors)
        top = m.row(0)
        total = sum(
            (top[j].poly * minors[j].poly for j in range(3)),
            start=parse_poly("0", domain=dom),
        )
        assert total == m.determinant().poly


def test_maximal_minors_boundary_block():
    k = make_matrix((2, 2), (1, 1, 1), [
        ["-x2", "0", "x0"],
        ["x1", "-x0", "0"],
    ])
    minors = {m.normalized().poly.serialize() for m in k.maximal_minors()}
    assert minors == {"x0^2", "x0*x1", "x0*x2"}


def test_maximal_minors_by_row_deletion():
    m = make_matrix((2, 2, 2), (1, 1), [
        ["x0", "x1"],
        ["x1", "x2"],
        ["x2", "x0"],
    ])
    minors = m.maximal_minors()
    assert len(minors) == 3
    assert all(type(mm) is Form and mm.degree == 2 for mm in minors)
    # each minor is the signed 2x2 determinant with one row deleted
    assert minors[0].poly == parse_poly("x1*x0 - x2*x2")


def test_graded_automorphism_refuses_a_singular_block():
    # the degree-2 block [[1, 2], [2, 4]] is singular, the degree-3 one not
    rows = [["1", "x0", "x1"], ["0", "1", "2"], ["0", "2", "4"]]
    with pytest.raises(DegreeError, match="block for degree 2"):
        GradedAutomorphism(make_matrix((3, 2, 2), (3, 2, 2), rows))
    rows[2][2] = "5"
    g = GradedAutomorphism(make_matrix((3, 2, 2), (3, 2, 2), rows))
    assert g.determinant() == parse_poly("1")
    assert type(g.determinant()) is Form and g.determinant().degree == 0


def identity_automorphism(degrees, domain=QQ):
    """The identity GradedAutomorphism on the given degrees."""
    one, zero = Form.constant(domain, 1), MultiPoly.zero(domain)
    return GradedAutomorphism(FormMatrix(degrees, degrees, [
        [one if i == j else zero for j in range(len(degrees))]
        for i in range(len(degrees))]))


def test_act_identity():
    m = bordered_example()
    g = identity_automorphism((3, 2, 2))
    h = identity_automorphism((1, 1, 1))
    assert act(g, m, h) == m


def test_act_determinant_multiplicative():
    dom = GF(101)
    rng = random.Random(17)
    for _ in range(10):
        m = random_matrix("res0", dom, rng=rng)
        g = random_graded_automorphism((3, 2, 2), dom, rng)
        h = random_graded_automorphism((1, 1, 1), dom, rng)
        lhs = act(g, m, h).determinant().poly
        rhs = m.determinant().poly * g.determinant().poly \
            * h.determinant().poly
        assert lhs == rhs


@pytest.mark.parametrize("other", [QQ, GF(103)], ids=repr)
def test_act_refuses_an_automorphism_over_another_field(other):
    m = random_matrix("res0", GF(101), seed=3)
    g, h = (identity_automorphism(d, GF(101)) for d in ((3, 2, 2), (1, 1, 1)))
    g_other, h_other = (random_graded_automorphism(d, other, random.Random(1))
                        for d in ((3, 2, 2), (1, 1, 1)))
    assert act(g, m, h) == m
    for left, right in ((g_other, h), (g, h_other), (g_other.matrix, h)):
        with pytest.raises(FieldMismatchError):
            act(left, m, right)


def test_random_automorphism_builds_no_checked_matrix():
    # its entries are forms of their degree, drawn as they are, so it is
    # built through _derived, and the block test is its only check
    calls = []
    checked = FormMatrix.__init__

    def counted(self, *args):
        calls.append(args)
        checked(self, *args)

    with mock.patch.object(FormMatrix, "__init__", counted):
        random_matrix("res0", GF(101), seed=1)  # the count sees a check
        assert len(calls) == 1
        for domain in (GF(101), GF(3), QQ):
            for degrees in ((3, 2, 2), (1, 1, 1), (3, 3), DEFORM_SRC):
                g = random_graded_automorphism(degrees, domain,
                                               random.Random(7))
                assert g.matrix.src_degrees == g.matrix.tgt_degrees == degrees
    assert len(calls) == 1


def test_random_automorphism_refuses_an_empty_degree_tuple():
    # a 0x0 matrix has no entries and so no domain: every draw would fail,
    # so the empty tuple is refused at once; the alarm turns a hang into
    # a failure
    def expire(signum, frame):
        raise TimeoutError("no answer in 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1)
    start = time.monotonic()
    try:
        for domain in (QQ, GF(101)):
            for degrees in ((), iter(())):
                with pytest.raises(DegreeError, match="at least one degree"):
                    random_graded_automorphism(degrees, domain,
                                               random.Random(0))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 1


def test_elementary_op_degree_checked():
    m = bordered_example()
    # adding x1 * (row of degree 2) to the degree-3 row is legal
    out = m.with_row_added(0, 2, parse_form("x1"))
    assert out[0, 0].poly == parse_poly("x1^2 + x1*x1")
    # a constant multiple across different source degrees is not
    with pytest.raises(DegreeError):
        m.with_row_added(0, 2, parse_form("1"))


def test_elementary_ops_determinant_scale():
    """Scaling a row by c multiplies the determinant by c; adding a
    multiple of one row to another leaves it as it is."""
    m = bordered_example()
    det = m.determinant().poly
    scaled = m.with_row_scaled(1, QQ.scalar(-5))
    assert scaled.determinant().poly == det * -5
    assert m.with_row_added(0, 2, parse_form("x1")).determinant().poly == det
    chained = scaled.with_row_scaled(0, QQ.scalar(3)).with_row_added(
        0, 2, parse_form("x1"))
    assert chained.determinant().poly == det * -15


def test_is_stable_kronecker():
    k = make_matrix((2, 2), (1, 1, 1), [
        ["-x2", "0", "x0"],
        ["x1", "-x0", "0"],
    ])
    assert is_stable_kronecker(k)
    k = make_matrix((2, 2), (1, 1, 1), [
        ["x0", "x1", "0"],
        ["0", "0", "0"],
    ])
    assert not is_stable_kronecker(k)
    k = make_matrix((2, 2), (1, 1, 1), [
        ["x0", "x1", "x2"],
        ["x1", "x2", "x0"],
    ])
    assert is_stable_kronecker(k)


def test_random_matrix_deterministic():
    dom = GF(101)
    a = random_matrix("res0", dom, seed=1)
    b = random_matrix("res0", dom, seed=1)
    c = random_matrix("res0", dom, seed=2)
    assert a == b
    assert a != c


def test_random_matrix_res1_shape():
    m = random_matrix("res1", GF(101), seed=0)
    assert m.src_degrees == (3, 3)
    assert m.tgt_degrees == (2, 0)


def test_json_roundtrip():
    m = bordered_example()
    data = m.to_json_dict()
    assert data["src_degrees"] == [3, 2, 2]
    again = matrix_from_json_dict(data, QQ)
    assert again == m


def test_transpose_keeps_entry_degrees():
    m = random_matrix("res1", GF(101), seed=5)
    t = m.transpose()
    assert (t.src_degrees, t.tgt_degrees) == ((-2, 0), (-3, -3))
    assert t[1, 0] == m[0, 1]
    assert t.transpose() == m


def test_random_form_over_qq_draws_small_integers():
    """One draw per monomial in graded-lex order: an integer in [-9, 9]
    over QQ, the residue rng.randrange(p) over GF(p); a domain that is not
    a field is refused."""
    for degree in range(4):
        monos = monomials_of_degree(degree)
        for domain, draw in ((QQ, lambda rng: rng.randrange(-9, 10)),
                             (GF(101), lambda rng: rng.randrange(101))):
            rng = random.Random(degree)
            want = {m: c for m in monos if (c := draw(rng))}
            form = random_form(domain, degree, random.Random(degree))
            assert form.degree == degree
            assert dict(exponent_terms(form.poly.raw)) == want
    values = [c for seed in range(20)
              for c in random_form(QQ, 3, random.Random(seed)).poly.raw
              .values()]
    assert all(type(c) is int and -9 <= c <= 9 for c in values)
    assert {-9, 9} <= set(values)
    with pytest.raises(ValueError, match="needs a field"):
        random_form(ParamRing(QQ, ("t",)), 1, random.Random(0))


def test_column_ops_are_row_ops_on_the_transpose():
    dom = GF(101)
    rng = random.Random(11)
    src, tgt = (3, 2, 2), (1, 1, 0)
    m = FormMatrix(src, tgt, [[random_form(dom, s - t, rng) for t in tgt]
                              for s in src])
    # scale column 1 by 7 and add (3*x1 - x2) * column 0 to column 2
    t, seven = m.transpose(), dom.scalar(7)
    mult = parse_form("3*x1 - x2", domain=dom)
    scaled = t.with_row_scaled(1, seven).transpose()
    added = t.with_row_added(2, 0, mult).transpose()
    for i, j in itertools.product(range(3), range(3)):
        assert scaled[i, j] == (m[i, j] * seven if j == 1 else m[i, j])
        assert added[i, j] == (m[i, 2] + mult * m[i, 0] if j == 2
                               else m[i, j])
    assert scaled.determinant().poly == m.determinant().poly * 7
    assert added.determinant().poly == m.determinant().poly
    with pytest.raises(DegreeError, match="multiplier must have degree 1"):
        t.with_row_added(2, 0, parse_form("1", domain=dom))
    with pytest.raises(DegreeError, match="scale must be nonzero"):
        t.with_row_scaled(0, 0)


def with_col_added(m, target, source, multiplier):
    """The column operation: the row operation on the transpose."""
    return m.transpose().with_row_added(target, source,
                                        multiplier).transpose()


@pytest.mark.parametrize("add, target, source, text", [
    (FormMatrix.with_row_added, 0, 2, "3*x1 - x2"),  # degree 3 - 2 on rows
    (with_col_added, 2, 0, "5"),  # degree 1 - 1 on columns
], ids=["row", "column"])
def test_multiplier_may_be_a_polynomial_of_its_degree(add, target, source,
                                                      text):
    dom = GF(101)
    m = random_matrix("res0", dom, seed=2)
    assert add(m, target, source, parse_poly(text, domain=dom)) == \
        add(m, target, source, parse_form(text, domain=dom))
    with pytest.raises(DegreeError, match=r"^multiplier must have degree "
                       r"\d, got 2: x0\^2$"):
        add(m, target, source, parse_poly("x0^2", domain=dom))


@pytest.mark.parametrize("shape", [(0, 0), (1, 0), (0, 1)], ids=str)
def test_a_matrix_with_no_entries_has_no_determinant_or_minors(shape):
    nrows, ncols = shape
    m = FormMatrix([1] * nrows, [0] * ncols, [[]] * nrows)
    for method in (m.determinant, m.maximal_minors):
        with pytest.raises(DegreeError, match=rf"^a {nrows}x{ncols} matrix "
                           "has no entries$"):
            method()


def test_constructor_reads_degrees_from_the_shape():
    polys = [[parse_poly("x0"), parse_poly("x1^3")],
             [parse_poly("0"), parse_poly("x2^3")]]
    m = FormMatrix((3, 3), (2, 0), polys)
    assert m == make_matrix((3, 3), (2, 0), [["x0", "x1^3"], ["0", "x2^3"]])
    assert m[1, 0].degree == 1
    # a row may mix Forms and polynomials; a Form of the required degree
    # is kept as it is, and a zero of any degree takes the required one
    cubic = parse_form("x1^3")
    mixed = FormMatrix((3, 3), (2, 0), [[polys[0][0], cubic],
                                        [Form.zero(QQ, 5), polys[1][1]]])
    assert mixed == m and mixed[0, 1] is cubic and mixed[1, 0].degree == 1
    # a zero where the required degree is negative is the zero of degree 0
    assert FormMatrix((1,), (2,), [[parse_poly("0")]])[0, 0].degree == 0


@pytest.mark.parametrize("src, tgt, rows, ij", [
    ((3, 3), (2, 0), [[parse_form("x0"), parse_poly("x2^2")],
                      [parse_poly("x1"), parse_form("x2^3")]], (0, 1)),
    ((3, 3), (2, 0), [[parse_poly("x0"), parse_form("x1^3")],
                      [parse_form("x1^2"), parse_poly("x2^3")]], (1, 0)),
    ((3, 3), (2, 4), [[parse_form("x0"), parse_form("1")],
                      [parse_poly("x1"), parse_poly("0")]], (0, 1)),
    ((3, 3), (2, 4), [[parse_form("x0"), parse_poly("0")],
                      [parse_poly("x1"), parse_poly("7")]], (1, 1)),
    ((3, 3), (2, 0), [[parse_poly("x0"), parse_poly("x1^3")],
                      [parse_poly("x1"), parse_poly("x0 + x2^3")]], (1, 1)),
], ids=["mixed row", "form of the wrong degree", "form at a negative degree",
        "polynomial at a negative degree", "inhomogeneous polynomial"])
def test_constructor_names_the_entry_it_refuses(src, tgt, rows, ij):
    need = src[ij[0]] - tgt[ij[1]]
    with pytest.raises(DegreeError, match=rf"^entry \({ij[0]},{ij[1]}\) "
                       rf"must have degree {need}, got \d+: "):
        FormMatrix(src, tgt, rows)


@pytest.mark.parametrize("rows, ij, text", [
    ([[parse_form("x0"), parse_form("x1^3", domain=GF(101))],
      [parse_form("x1"), parse_form("x2^3")]], (0, 1),
     "is over GF(101), entry (0,0) over QQ"),
    ([[parse_form("x0", domain=GF(101)), parse_form("x1^3", domain=GF(101))],
      [parse_poly("x1"), parse_form("x2^3", domain=GF(101))]], (1, 0),
     "is over QQ, entry (0,0) over GF(101)"),
    ([[parse_form("x0"), parse_form("x1^3")],
      [parse_form("x1"), Form.zero(GF(3), 3)]], (1, 1),
     "is over GF(3), entry (0,0) over QQ"),
], ids=["form over GF(101)", "polynomial over QQ", "zero over GF(3)"])
def test_constructor_refuses_an_entry_over_another_domain(rows, ij, text):
    # a matrix whose entries mix domains is refused where it enters, so
    # scaled and + cannot rewrite it into the domain of entry (0, 0)
    name = rf"^entry \({ij[0]},{ij[1]}\) "
    with pytest.raises(FieldMismatchError, match=name + re.escape(text) + "$"):
        FormMatrix((3, 3), (2, 0), rows)


def degrees(matrix):
    return [[e.degree for e in row] for row in matrix.entries]


def test_derived_matrices_keep_the_constructor_contract():
    # rebuilding each derived matrix through the constructor must give the
    # same matrix with the same degrees
    m = bordered_example()
    g = random_graded_automorphism((3, 2, 2), GF(101), random.Random(5))
    derived = [
        m.submatrix([1, 2], [0, 2]), m.transpose(), g.matrix.transpose(),
        g.matrix.submatrix([0, 2], [0, 1]), m.scaled(QQ.scalar(3)),
        m.scaled(0), g.matrix.scaled(0), m + m.scaled(-1),
        m.with_row_scaled(1, QQ.scalar(2)),
        m.transpose().with_row_scaled(2, QQ.scalar(2)).transpose(),
        m.with_row_added(0, 1, parse_form("x1")),
        with_col_added(m, 1, 0, parse_form("1")),
        # a zero multiplier of another degree adds nothing, and leaves no
        # zero entry of its own degree where the target row is zero
        m.with_row_added(1, 2, Form.zero(QQ, 7)),
        with_col_added(m, 1, 0, Form.zero(QQ, 7)),
    ]
    for d in derived:
        again = FormMatrix(d.src_degrees, d.tgt_degrees, d.entries)
        assert again == d and degrees(again) == degrees(d), d
    assert m.with_row_added(1, 2, Form.zero(QQ, 7)) is m


def sparse_matrix(domain, src, tgt, rng):
    """A checked matrix whose entries are random forms of their degrees,
    each zero with probability 1/3, so that zero entries of every degree
    appear."""
    return FormMatrix(src, tgt, [
        [random_form(domain, s - t, rng) if s >= t and rng.randrange(3)
         else MultiPoly.zero(domain) for t in tgt] for s in src])


def replaced_matrices(a, b):
    """The matrices whose determinants tangent_quartic(a, b) sums, as it
    builds them."""
    seen = []
    determinant = FormMatrix.determinant

    def record(m):
        seen.append(m)
        return determinant(m)

    with mock.patch.object(FormMatrix, "determinant", record):
        tangent_quartic(a, b)
    return seen


def test_unchecked_derived_matrices_pass_the_check():
    # every matrix built from checked ones without the constructor's check
    # would pass it with the same entry degrees, zero entries included:
    # sums, scalings (by 0 too), transposes, submatrices, each row and
    # column operation (zero multipliers of any degree too), act, the random
    # graded automorphisms, the matrices that tangent_quartic replaces
    # rows in, and BlowupChartPoint.total,
    # on the res0, res1 and 5x4 deformation shapes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    shapes = {**SHAPES, "deform": (DEFORM_SRC, DEFORM_TGT)}

    @hypothesis.settings(max_examples=15, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.sampled_from([QQ, GF(101), GF(3)]),
                      st.sampled_from(sorted(shapes)), st.integers(0, 2**32))
    def derived_pass(domain, shape, seed):
        rng = random.Random(seed)
        src, tgt = shapes[shape]
        m, other = (sparse_matrix(domain, src, tgt, rng) for _ in range(2))
        c = domain.scalar(rng.choice([2, -1]))  # nonzero in every field

        def pick(n):
            return sorted(rng.sample(range(n), rng.randrange(1, n + 1)))

        def multiplier(need):
            # a form of degree need, or a zero form of any degree
            if need < 0 or not rng.randrange(3):
                return Form.zero(domain, rng.randrange(5))
            return random_form(domain, need, rng)

        rt, rs = rng.randrange(len(src)), rng.randrange(len(src))
        ct, cs = rng.randrange(len(tgt)), rng.randrange(len(tgt))
        derived = [
            m + other, m.scaled(c), m.scaled(0), m.transpose(),
            m.submatrix(pick(len(src)), pick(len(tgt))),
            m.with_row_scaled(rt, c),
            m.transpose().with_row_scaled(ct, c).transpose(),
            m.with_row_added(rt, rs, multiplier(src[rt] - src[rs])),
            with_col_added(m, ct, cs, multiplier(tgt[cs] - tgt[ct])),
            act(random_graded_automorphism(src, domain, rng), m,
                random_graded_automorphism(tgt, domain, rng)),
            random_graded_automorphism(src, domain, rng).matrix,
            random_graded_automorphism(tgt, domain, rng).matrix,
        ]
        if shape == "res0":
            derived += replaced_matrices(m, other)
            k = [rng.randrange(-3, 4) for _ in range(9)]
            pt = make_blowup_chart_point(
                domain, k[0], k[1], k[2], 1, random_form(
                    domain, 2, rng).serialize(), f"{k[3]}*x1^2 + {k[4]}*x1*x2",
                f"{k[5]}*x2^2", (1, k[6], k[7], k[8]), "a", rng.randrange(5))
            derived += [pt.total(), pt.total(rng.randrange(-3, 4))]
        for d in derived:
            again = FormMatrix(d.src_degrees, d.tgt_degrees, d.entries)
            assert again == d and degrees(again) == degrees(d), d
            assert all(isinstance(e, Form) for row in d.entries for e in row)

    for domain in (QQ, GF(3)):
        for shape in shapes:
            derived_pass = hypothesis.example(domain, shape, 7)(derived_pass)
    start = time.monotonic()
    derived_pass()
    assert time.monotonic() - start < 2
