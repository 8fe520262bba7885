import contextlib
import random

import pytest

from quarticmoduli import gcd, poly, strata
from quarticmoduli.field import GF, QQ, InvariantError
from quarticmoduli.matrices import (
    SHAPES,
    FormMatrix,
    act,
    is_stable_kronecker,
    make_matrix,
    random_graded_automorphism,
    random_matrix,
)
from quarticmoduli.poly import Form, parse_form, parse_poly
from quarticmoduli.strata import (
    BOUNDARY,
    INVALID,
    M00,
    M01,
    M10,
    M11,
    NOT_STABLE,
    classify_res0,
    classify_res1,
    extension_data,
    extract_Z_points,
)


def boundary_matrix():
    # zero-determinant normal form with w = x1
    return make_matrix((3, 2, 2), (1, 1, 1), [
        ["0", "-x2*x1", "x1*x1"],
        ["-x2", "0", "x0"],
        ["x1", "-x0", "0"],
    ])


def m01_matrix():
    return make_matrix((3, 2, 2), (1, 1, 1), [
        ["x1^2", "0", "0"],
        ["-x2", "0", "x0"],
        ["x1", "-x0", "0"],
    ])


def m00_matrix():
    return make_matrix((3, 2, 2), (1, 1, 1), [
        ["x0^2", "0", "0"],
        ["x0", "x1", "x2"],
        ["x1", "x2", "x0"],
    ])


def test_boundary_classification():
    report = classify_res0(boundary_matrix())
    assert report.label == BOUNDARY
    assert report.line.poly == parse_poly("x0")
    # point = Z(x0, x1)
    assert report.point == (QQ.zero, QQ.zero, QQ.one)


def test_m01_classification():
    report = classify_res0(m01_matrix())
    assert report.label == M01
    assert report.quartic.poly == parse_poly("x0^2*x1^2")
    assert report.line.poly == parse_poly("x0")
    assert report.cubic.poly == parse_poly("x0*x1^2")


def test_m01_line_divides_every_minor():
    report = classify_res0(m01_matrix())
    for minor in report.scheme_ideal:
        assert minor.poly.try_exact_div(report.line.poly) is not None


def test_m00_classification():
    report = classify_res0(m00_matrix())
    assert report.label == M00
    assert report.quartic
    assert len(report.scheme_ideal) == 3


def test_not_stable_res0():
    m = make_matrix((3, 2, 2), (1, 1, 1), [
        ["x0^2", "0", "0"],
        ["x0", "x1", "0"],
        ["0", "0", "0"],
    ])
    assert classify_res0(m).label == NOT_STABLE


def test_res0_wrong_shape_invalid():
    m = make_matrix((3, 3), (2, 0), [["x0", "x1^3"], ["x1", "x2^3"]])
    assert classify_res0(m).label == INVALID


def test_res1_m10():
    m = make_matrix((3, 3), (2, 0), [["x0", "x1^3"], ["x1", "x2^3"]])
    report = classify_res1(m)
    assert report.label == M10
    assert report.point == (QQ.zero, QQ.zero, QQ.one)
    assert report.quartic.poly == parse_poly("x0*x2^3 - x1^4")
    assert not report.quartic.evaluate(report.point)


def test_res1_m11():
    m = make_matrix((3, 3), (2, 0), [["x0", "0"], ["x1", "x2^3"]])
    report = classify_res1(m)
    assert report.label == M11
    assert report.line.poly == parse_poly("x0")
    assert not report.quartic.evaluate(report.point)


def test_res1_m11_nonsplit_witness():
    # (x0^2 + x1^2) * q: the dividing lines are irrational over QQ
    m = make_matrix((3, 3), (2, 0), [["x0", "-x1*x2^2"], ["x1", "x0*x2^2"]])
    report = classify_res1(m)
    assert report.quartic.poly == parse_poly("x0^2*x2^2 + x1^2*x2^2")
    assert report.label == M11


def test_res1_not_stable():
    m = make_matrix((3, 3), (2, 0), [["x0", "x1^3"], ["2*x0", "x2^3"]])
    assert classify_res1(m).label == NOT_STABLE


def test_res1_zero_determinant_invalid():
    m = make_matrix((3, 3), (2, 0), [["x0", "0"], ["x1", "0"]])
    assert classify_res1(m).label == INVALID


def test_classification_invariant_under_action():
    dom = GF(101)
    rng = random.Random(5)
    for _ in range(25):
        m = random_matrix("res0", dom, rng=rng)
        base = classify_res0(m).label
        g = random_graded_automorphism((3, 2, 2), dom, rng)
        h = random_graded_automorphism((1, 1, 1), dom, rng)
        assert classify_res0(act(g, m, h)).label == base


def test_classify_res0_work_counts(monkeypatch):
    """Exact counts, not times: a random GF(101) res0 matrix is decided
    with no multivariate GCD and one set of maximal minors."""
    calls = {"gcd": 0, "minors": 0}
    gcd_before = gcd.multivariate_gcd
    minors_before = FormMatrix.maximal_minors

    def counting_gcd(a, b):
        calls["gcd"] += 1
        return gcd_before(a, b)

    def counting_minors(self):
        calls["minors"] += 1
        return minors_before(self)

    dom = GF(101)
    rng = random.Random(17)
    # a zero third column in the linear block leaves one nonzero minor
    rows = [list(row) for row in random_matrix("res0", dom, rng=rng).entries]
    rows[1][2] = rows[2][2] = Form.zero(dom, 1)
    zero_column = FormMatrix((3, 2, 2), (1, 1, 1), rows)
    cases = [random_matrix("res0", dom, rng=rng) for _ in range(20)]
    stable = [is_stable_kronecker(m.submatrix([1, 2], [0, 1, 2]))
              for m in cases + [zero_column]]
    monkeypatch.setattr(gcd, "multivariate_gcd", counting_gcd)
    monkeypatch.setattr(FormMatrix, "maximal_minors", counting_minors)
    for m in cases:
        calls.update(gcd=0, minors=0)
        report = classify_res0(m)
        assert report.label == M00
        assert calls == {"gcd": 0, "minors": 1}
    labels = [classify_res0(m).label for m in cases + [zero_column]]
    assert [label != NOT_STABLE for label in labels] == stable
    assert labels[-1] == NOT_STABLE


def test_classify_res1_work_counts(monkeypatch):
    """Exact counts: a random GF(101) res1 matrix, and an M11 matrix whose
    quartic is smooth at the point, are decided by the tangent-line test,
    with no pencil restriction and no pencil GCD; an M11 matrix whose
    quartic is singular at the point still takes the pencil search."""
    calls = {"restrict": 0, "gcd_fold": 0}
    restrict_before = gcd._pencil_restriction_coefficients
    gcd_fold_before = gcd.gcd_fold

    def counting_restrict(*args):
        calls["restrict"] += 1
        return restrict_before(*args)

    def counting_gcd_fold(forms):
        calls["gcd_fold"] += 1
        return gcd_fold_before(forms)

    dom = GF(101)
    rng = random.Random(23)
    cases = [random_matrix("res1", dom, rng=rng) for _ in range(20)]
    monkeypatch.setattr(gcd, "_pencil_restriction_coefficients",
                        counting_restrict)
    monkeypatch.setattr(gcd, "gcd_fold", counting_gcd_fold)
    for m in cases:
        assert classify_res1(m).label == M10
    assert calls == {"restrict": 0, "gcd_fold": 0}
    m11 = make_matrix((3, 3), (2, 0), [["x0", "0"], ["x1", "x2^3"]], dom)
    assert classify_res1(m11).label == M11
    assert calls == {"restrict": 0, "gcd_fold": 0}
    # the quartic x2^2*(x0^2 + x1^2) is singular at the point (0 : 0 : 1)
    singular = make_matrix((3, 3), (2, 0), [["x0", "-x1*x2^2"],
                                            ["x1", "x0*x2^2"]], dom)
    assert classify_res1(singular).label == M11
    assert calls == {"restrict": 1, "gcd_fold": 1}


def test_extract_Z_points_against_scan():
    dom = GF(7)
    m = make_matrix((3, 2, 2), (1, 1, 1), [
        ["x0^2", "0", "0"],
        ["x0", "x1", "x2"],
        ["x1", "x2", "x0"],
    ], domain=dom)
    report = classify_res0(m)
    assert report.label == M00
    z = extract_Z_points(report)
    # brute-force scan of the projective plane over F_7
    minors = report.scheme_ideal
    found = set()
    reps = [(1, 0, 0)] + [(a, 1, 0) for a in range(7)] + [
        (a, b, 1) for a in range(7) for b in range(7)
    ]
    for rep in reps:
        p = tuple(dom.scalar(c) for c in rep)
        if all(not mm.evaluate(p) for mm in minors):
            found.add(rep)
    def key(p):
        pivot = max(i for i in range(3) if p[i])
        inv = p[pivot].inverse()
        return tuple((c * inv).value for c in p)
    assert {key(p) for p, _ in z.points} == {
        key(tuple(dom.scalar(c) for c in rep)) for rep in found
    }
    assert sum(mult for _, mult in z.points) + z.nonsplit_degree == 3


def test_extract_Z_points_prescribed_zeros():
    # minors of this block vanish exactly on the coordinate points
    m = make_matrix((3, 2, 2), (1, 1, 1), [
        ["x0^2", "x1^2", "x2^2"],
        ["x0", "x1", "0"],
        ["0", "x1", "x2"],
    ])
    report = classify_res0(m)
    assert report.label == M00
    z = extract_Z_points(report)
    coords = {
        tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
    }
    got = {
        tuple(int(bool(c.value)) for c in p) for p, _ in z.points
    }
    assert got == coords


def test_extract_Z_requires_m00():
    with pytest.raises(ValueError):
        extract_Z_points(classify_res0(m01_matrix()))


def test_extension_data():
    line, cubic = extension_data(classify_res0(m01_matrix()))
    assert line.poly == parse_poly("x0")
    assert cubic.poly == parse_poly("x0*x1^2")
    with pytest.raises(ValueError):
        extension_data(classify_res0(m00_matrix()))


def test_report_serialization():
    report = classify_res0(m01_matrix())
    data = report.to_json_dict()
    assert data["label"] == M01
    assert data["quartic"] == "x0^2*x1^2"
    assert data["line"] == "x0"


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_boundary_parameters_inverts_boundary_matrix(domain):
    xbar0 = parse_form("x0 + 2*x1 - 3*x2", domain=domain)
    w = parse_form("5*x1 + 7*x2", domain=domain)
    a = strata.boundary_matrix(xbar0, w)
    assert not a.determinant()
    assert strata.boundary_parameters(a) == (xbar0, w)
    assert strata.boundary_parameters(boundary_matrix()) \
        == (parse_form("x0"), parse_form("x1"))


def test_boundary_parameters_refuses_other_matrices():
    a = strata.boundary_matrix(parse_form("x0"), parse_form("x1 + x2"))
    texts = [["0", "-x2*(x1 + x2)", "x1*(x1 + x2)"],
             ["-x2", "0", "x0"],
             ["x1", "-x0", "0"]]
    assert strata.boundary_parameters(a) is not None
    assert strata.boundary_parameters(a.submatrix([1, 2], [0, 1, 2])) is None
    assert strata.boundary_parameters(
        make_matrix((3, 3), (2, 0), [["x0", "x1^3"], ["x1", "x2^3"]])) is None
    nonzero_corner = [["x1^2"] + texts[0][1:]] + texts[1:]
    assert strata.boundary_parameters(
        make_matrix((3, 2, 2), (1, 1, 1), nonzero_corner)) is None
    # entry (0, 1) gives w = x1 + x2, entry (0, 2) gives w = x1
    mismatched = [["0", "-x2*(x1 + x2)", "x1*x1"]] + texts[1:]
    assert strata.boundary_parameters(
        make_matrix((3, 2, 2), (1, 1, 1), mismatched)) is None
    zero_w = [["0", "0", "0"]] + texts[1:]
    assert strata.boundary_parameters(
        make_matrix((3, 2, 2), (1, 1, 1), zero_w)) is None


def test_null_vector_keeps_its_errors():
    """The Z-point kernel vector: a rank-2 matrix of scalars or raw values
    gives a kernel vector, a nonsingular one a ValueError, a rank-1 one an
    InvariantError."""
    dom = GF(101)

    def matrix(rows):
        return [[dom.scalar(v) for v in row] for row in rows]

    vec = strata._null_vector(matrix([[1, 0, 2], [0, 1, 3], [1, 1, 5]]), dom)
    assert [c.value for c in vec] == [99, 98, 1]
    # raw entries, as extract_Z_points passes them, are taken mod 101: the
    # first column's 101 is no pivot
    vec = strata._null_vector([[101, 1, 3], [1, 0, 2], [1, 1, 308]], dom)
    assert [c.value for c in vec] == [99, 98, 1]
    with pytest.raises(ValueError, match="trivial kernel"):
        strata._null_vector(matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), dom)
    with pytest.raises(InvariantError, match="kernel of dimension > 1"):
        strata._null_vector(matrix([[1, 2, 3], [2, 4, 6], [0, 0, 0]]), dom)


def test_null_vector_reduces_once(monkeypatch):
    """Exact count: one _eliminate call per Z-point kernel vector, whether
    it returns a vector or raises."""
    dom = GF(101)
    calls = []
    before = poly._eliminate
    counting = lambda rows, p: calls.append(1) or before(rows, p)  # noqa: E731
    monkeypatch.setattr(strata, "_eliminate", counting)
    for rows in ([[1, 0, 2], [0, 1, 3], [1, 1, 5]],
                 [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[1, 2, 3], [2, 4, 6], [0, 0, 0]]):
        calls.clear()
        with contextlib.suppress(ValueError, InvariantError):
            strata._null_vector([[dom.scalar(v) for v in r] for r in rows],
                                dom)
        assert len(calls) == 1, rows


@pytest.mark.parametrize("dom", [QQ, GF(101)], ids=repr)
def test_check_not_collinear(dom):
    """Three found points pass exactly when they are independent; fewer
    than three are never checked."""
    def found(points):
        return [(tuple(dom.scalar(v) for v in p), 1) for p in points]

    strata._check_not_collinear(found([(1, 0, 0), (0, 1, 0), (1, 1, 1)]), dom)
    strata._check_not_collinear(found([(1, 2, 3), (2, 4, 6)]), dom)
    for points in ([(1, 0, 0), (0, 1, 0), (1, 1, 0)],
                   [(1, 2, 3), (0, 1, 1), (2, 5, 7)]):
        with pytest.raises(InvariantError, match="collinear"):
            strata._check_not_collinear(found(points), dom)
    # on the line x2 = 0 only mod 101
    mod_p = found([(1, 0, 0), (0, 1, 0), (1, 1, 101)])
    if dom == QQ:
        strata._check_not_collinear(mod_p, dom)
    else:
        with pytest.raises(InvariantError, match="collinear"):
            strata._check_not_collinear(mod_p, dom)


@pytest.mark.parametrize("seed", range(4))
def test_labels_invariant_under_act_over_qq(seed):
    """Criterion 4's act-invariance over QQ, on both shapes: random matrices
    and graded automorphisms draw small integers there."""
    for shape, classify in (("res0", classify_res0), ("res1", classify_res1)):
        rng = random.Random(seed)
        m = random_matrix(shape, QQ, rng=rng)
        src, tgt = SHAPES[shape]
        g = random_graded_automorphism(src, QQ, rng)
        h = random_graded_automorphism(tgt, QQ, rng)
        assert m.domain is QQ
        assert classify(act(g, m, h)).label == classify(m).label
