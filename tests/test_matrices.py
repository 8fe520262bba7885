import random

import pytest

from quarticmoduli.field import GF, QQ, ParamRing
from quarticmoduli.matrices import (
    AddMultipleOfCol,
    AddMultipleOfRow,
    DegreeError,
    FormMatrix,
    ScaleCol,
    ScaleRow,
    act,
    apply_ops,
    identity_automorphism,
    is_stable_kronecker,
    make_matrix,
    matrix_from_json_dict,
    random_graded_automorphism,
    random_form,
    random_matrix,
)
from quarticmoduli.poly import (
    Form,
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
    # each minor is the signed 2x2 determinant with one row deleted
    assert minors[0].poly == parse_poly("x1*x0 - x2*x2")


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


def test_elementary_op_degree_checked():
    m = bordered_example()
    # adding x1 * (row of degree 2) to the degree-3 row is legal
    out = AddMultipleOfRow(0, 2, parse_form("x1")).apply(m)
    assert out[0, 0].poly == parse_poly("x1^2 + x1*x1")
    # a constant multiple across different source degrees is not
    with pytest.raises(DegreeError):
        AddMultipleOfRow(0, 2, parse_form("1")).apply(m)


def test_elementary_ops_determinant_scale():
    """Scaling a row by c multiplies the determinant by c; adding a
    multiple of one row to another leaves it as it is."""
    m = bordered_example()
    ops = [
        ScaleRow(1, QQ.scalar(-5)),
        ScaleRow(0, QQ.scalar(3)),
        AddMultipleOfRow(0, 2, parse_form("x1")),
    ]
    det = m.determinant().poly
    assert ops[0].apply(m).determinant().poly == det * -5
    assert ops[2].apply(m).determinant().poly == det
    assert apply_ops(m, ops).determinant().poly == det * -15


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
            assert form.degree == degree and form.poly.raw == want
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
    cases = [
        (ScaleCol(1, dom.scalar(7)), ScaleRow(1, dom.scalar(7)), 7),
        (AddMultipleOfCol(2, 0, parse_form("3*x1 - x2", domain=dom)),
         AddMultipleOfRow(2, 0, parse_form("3*x1 - x2", domain=dom)), 1),
    ]
    for col_op, row_op, factor in cases:
        out = col_op.apply(m)
        assert out == row_op.apply(m.transpose()).transpose()
        assert out.determinant().poly == m.determinant().poly * factor
    with pytest.raises(DegreeError, match="multiplier must have degree 1"):
        AddMultipleOfCol(2, 0, parse_form("1", domain=dom)).apply(m)
    with pytest.raises(DegreeError, match="scale must be nonzero"):
        ScaleCol(0, 0).apply(m)


def test_from_polys_reads_degrees_from_the_shape():
    polys = [[parse_poly("x0"), parse_poly("x1^3")],
             [parse_poly("0"), parse_poly("x2^3")]]
    m = FormMatrix.from_polys((3, 3), (2, 0), polys)
    assert m == make_matrix((3, 3), (2, 0), [["x0", "x1^3"], ["0", "x2^3"]])
    assert m[1, 0].degree == 1
    polys[1][1] = parse_poly("x2^2")
    with pytest.raises(DegreeError, match=r"entry \(1,1\) must have degree 3"):
        FormMatrix.from_polys((3, 3), (2, 0), polys)
    polys[1][1] = parse_poly("x0 + x2^3")
    with pytest.raises(DegreeError, match=r"entry \(1,1\)"):
        FormMatrix.from_polys((3, 3), (2, 0), polys)
