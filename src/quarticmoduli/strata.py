"""Classification of presentation matrices into the moduli strata.

A 3x3 matrix with degrees (3,2,2) -> (1,1,1) presents a sheaf of the open
stratum; a 2x2 matrix with degrees (3,3) -> (2,0) presents one of the
closed stratum.  The classifier extracts the supporting quartic, the
length-3 scheme, the line/cubic splitting, or the boundary data.
"""

from contextlib import suppress

from .field import InvariantError
from .gcd import (
    binary_roots,
    common_linear_factor,
    line_intersection,
    lines_dividing_all,
    normalize_point,
)
from .matrices import SHAPES, FormMatrix, stable_kronecker_minors
from .poly import (
    Form,
    _eliminate,
    _graded,
    coefficient_rows,
    dot_raw,
    kernel_vector,
    keys_of_degree,
    multiples_matrix,
    solve_linear,
)

M00 = "M00"
M01 = "M01"
M10 = "M10"
M11 = "M11"
BOUNDARY = "BoundaryBprime"
NOT_STABLE = "NotStable"
INVALID = "Invalid"


class StratumReport:
    """Outcome of classifying a presentation matrix."""

    def __init__(
        self,
        label,
        quartic=None,
        point=None,
        line=None,
        cubic=None,
        scheme_ideal=None,
        diagnostics="",
        kronecker=None,
    ):
        self.label = label
        self.quartic = quartic
        self.point = point
        self.line = line
        self.cubic = cubic
        self.scheme_ideal = scheme_ideal
        self.diagnostics = diagnostics
        self.kronecker = kronecker  # linear part, kept for Z extraction

    def to_json_dict(self):
        out = {"schema": 1, "label": self.label, "diagnostics": self.diagnostics}
        if self.quartic is not None:
            out["quartic"] = self.quartic.serialize()
        if self.point is not None:
            out["point"] = [str(c) for c in self.point]
        if self.line is not None:
            out["line"] = self.line.serialize()
        if self.cubic is not None:
            out["cubic"] = self.cubic.serialize()
        if self.scheme_ideal is not None:
            out["scheme_ideal"] = [f.serialize() for f in self.scheme_ideal]
        return out

    def __repr__(self):
        return f"StratumReport({self.label})"


def classify_res0(a):
    """Classify a (3,2,2) -> (1,1,1) presentation matrix.

    NotStable when the linear 2x3 block is an unstable Kronecker module;
    BoundaryBprime when the determinant vanishes, unless the top row lies
    in the row space of the linear block, which is Invalid; M01 when the
    minors share a linear factor; M00 otherwise.
    """
    if not isinstance(a, FormMatrix) \
            or (a.src_degrees, a.tgt_degrees) != SHAPES["res0"]:
        return StratumReport(INVALID, diagnostics="expected shape res0")
    k = a.submatrix([1, 2], [0, 1, 2])
    minors = k.maximal_minors()
    if not stable_kronecker_minors(minors):
        return StratumReport(
            NOT_STABLE,
            diagnostics="2x2 minors of the linear part are dependent",
            kronecker=k,
        )
    # Laplace expansion along the top row: det = sum_j a[0, j] * minor_j
    quartic = _graded(a.domain, a.domain.canonical(dot_raw(
        [(q.raw, minor.raw) for q, minor in zip(a.row(0), minors)])), 4)
    if not quartic:
        return _boundary_report(a, k, minors)
    line = common_linear_factor(minors)
    if line is not None:
        return StratumReport(
            M01,
            quartic=quartic,
            line=line,
            cubic=quartic.exact_div(line),
            scheme_ideal=minors,
            diagnostics="minors share a linear factor",
            kronecker=k,
        )
    return StratumReport(
        M00,
        quartic=quartic,
        scheme_ideal=minors,
        diagnostics="determinant nonzero, minors coprime",
        kronecker=k,
    )


def _boundary_report(a, k, minors):
    """BoundaryBprime for a zero determinant, or Invalid when the top row q
    lies in the row space of the linear part k, so that the presentation
    is not injective.

    On the boundary normal form boundary_matrix(xbar0, w) the line is read,
    not searched for: the minors are xbar0*(xbar0, x1, x2), so their
    common factor is xbar0, normalized, and ``common_linear_factor`` runs
    only on any other matrix.  There q = u1*row1 + u2*row2 asks xbar0 to
    divide x2*w, and the stable xbar0 is no multiple of x2, so it means w
    is a multiple of xbar0: Z(xbar0, w) is no point.  Any other matrix is
    injective exactly when its minors share a line (coprime minors always
    mean the top row is in the row space, by Hilbert-Burch) and one solve
    finds q outside the row space.
    """
    params = boundary_parameters(a)
    point = None
    if params is None:
        line = common_linear_factor(minors)
        injective = line is not None and not _in_row_space(a.row(0), k)
    else:
        line = params[0].normalized()
        with suppress(ValueError):
            point = line_intersection(line, params[1])
        injective = point is not None
    if not injective:
        return StratumReport(INVALID, kronecker=k, diagnostics=(
            "zero determinant with the top row in the row space of the "
            "linear part: the presentation is not injective"))
    if params is None:
        detail = "matrix not in the boundary normal form, w not recovered"
    else:
        detail = (f"boundary parameter w = {params[1].serialize()} "
                  "recovered from the top row")
    return StratumReport(BOUNDARY, line=line, point=point, kronecker=k,
                         diagnostics="zero determinant over the boundary "
                         f"line; {detail}")


def _in_row_space(q, k):
    """Whether the quadrics q are u1*row1 + u2*row2 for the rows of the
    linear block k and linear forms u1, u2: one solve of the 18 quadric
    coefficients in the 6 coefficients of u1 and u2, whose columns are the
    multiples x*k[i, j] of each entry j, laid out by key shift."""
    xs, quadrics = keys_of_degree(1), keys_of_degree(2)
    matrix = sum((multiples_matrix([(x, k[i, j].raw) for i in range(2)
                                    for x in xs], quadrics)
                  for j in range(3)), [])
    return solve_linear(matrix, sum(coefficient_rows(q, 2), []),
                        k.domain.modulus) is not None


def boundary_matrix(xbar0, w):
    """The boundary normal form [[0, -x2*w, x1*w], [-x2, 0, xbar0],
    [x1, -xbar0, 0]] for linear forms xbar0 and w; its determinant is 0."""
    domain = xbar0.domain
    x1, x2 = Form.variable(domain, 1), Form.variable(domain, 2)
    zero1, zero2 = Form.zero(domain, 1), Form.zero(domain, 2)
    return FormMatrix(*SHAPES["res0"], [
        [zero2, -x2 * w, x1 * w],
        [-x2, zero1, xbar0],
        [x1, -xbar0, zero1],
    ])


def boundary_parameters(a):
    """(xbar0, w) when a is boundary_matrix(xbar0, w) with w nonzero,
    else None.  The normal form is read, not rebuilt: w is entry (0, 1)
    divided by -x2 and xbar0 is entry (1, 2), and the seven other entries
    are compared with 0, x1*w, -x2, 0, x1, -xbar0 and 0."""
    if not isinstance(a, FormMatrix) \
            or (a.src_degrees, a.tgt_degrees) != SHAPES["res0"] or not a[0, 1]:
        return None
    x1, x2 = Form.variable(a.domain, 1), Form.variable(a.domain, 2)
    w = a[0, 1].try_exact_div(-x2)
    if w is None:
        return None
    zeros = a[0, 0], a[1, 1], a[2, 2]
    found = a[0, 2], a[1, 0], a[2, 0], a[2, 1]
    if any(zeros) or found != (x1 * w, -x2, x1, -a[1, 2]):
        return None
    return a[1, 2], w


def classify_res1(a):
    """Classify a (3,3) -> (2,0) presentation matrix.

    The first column holds the two linear forms cutting out the point, the
    second column the two cubics; the determinant is the quartic.
    """
    if not isinstance(a, FormMatrix) \
            or (a.src_degrees, a.tgt_degrees) != SHAPES["res1"]:
        return StratumReport(INVALID, diagnostics="expected shape res1")
    try:  # the cross product of the z column is zero when its rank is < 2
        point = line_intersection(a[0, 0], a[1, 0])
    except ValueError:
        return StratumReport(
            NOT_STABLE, diagnostics="dependent linear forms in the z column"
        )
    det = a.determinant()
    if not det:
        return StratumReport(
            INVALID,
            point=point,
            diagnostics="zero determinant: no supporting quartic",
        )
    search = lines_dividing_all([det], through=point)
    if search.lines:
        line = search.lines[0]
        return StratumReport(
            M11,
            quartic=det,
            point=point,
            line=line,
            diagnostics=f"line {line.serialize()} through the point divides "
            "the quartic",
        )
    if search.nonsplit_degree > 0:
        return StratumReport(
            M11,
            quartic=det,
            point=point,
            diagnostics=(
                "a dividing line exists over an extension field "
                f"(non-split remainder of degree {search.nonsplit_degree})"
            ),
        )
    return StratumReport(
        M10,
        quartic=det,
        point=point,
        diagnostics="no line through the point divides the quartic",
    )


class ZPoints:
    """Rational points of the length-3 scheme, with multiplicity."""

    def __init__(self, points, nonsplit_degree, generators):
        self.points = points  # list of (point, multiplicity)
        self.nonsplit_degree = nonsplit_degree
        self.generators = generators

    @property
    def split(self):
        return self.nonsplit_degree == 0

    def __repr__(self):
        return f"ZPoints({self.points}, nonsplit={self.nonsplit_degree})"


def extract_Z_points(report):
    """Points of the scheme cut out by the minors of an M00 report.

    Pencil elimination: the scheme consists of the points where the two
    rows of the linear block become dependent, i.e. the kernels of the
    3x3 coefficient matrix of u*row0 + v*row1 at the roots of its
    determinant, a binary cubic in [u:v].
    """
    if report.label != M00:
        raise ValueError("Z extraction needs an M00 report")
    k = report.kronecker
    domain = k.domain
    z, w = coefficient_rows(k.row(0), 1), coefficient_rows(k.row(1), 1)
    # det(u*Z + v*W) as a binary cubic in u = x1, v = x2, the determinant
    # of the pencil matrix of linear forms on (1,1,1) -> (0,0,0)
    _, x1, x2 = keys_of_degree(1)
    cubic = FormMatrix((1, 1, 1), (0, 0, 0), [
        [_graded(domain, domain.canonical({x1: a, x2: b}), 1)
         for a, b in zip(z_row, w_row)]
        for z_row, w_row in zip(z, w)]).determinant()
    if not cubic:
        raise ValueError("pencil determinant vanishes identically")
    roots, nonsplit = binary_roots(cubic)
    points = {}
    order = []
    for u, v in roots:
        u, v = domain.unbox(u), domain.unbox(v)
        p = _null_vector([[a * u + b * v for a, b in zip(z_row, w_row)]
                          for z_row, w_row in zip(z, w)], domain)
        key = normalize_point(p)
        if key not in points:
            points[key] = [p, 0]
            order.append(key)
        points[key][1] += 1
    found = [(points[k][0], points[k][1]) for k in order]
    if nonsplit == 0:
        _check_not_collinear(found, domain)
    return ZPoints(found, nonsplit, report.scheme_ideal)


def _null_vector(m, domain):
    """A nonzero right kernel vector, boxed, of a rank-2 3x3 matrix of
    scalars or raw values."""
    rows = [[domain.unbox(v) for v in row] for row in m]
    pivots = _eliminate(rows, domain.modulus)
    if len(pivots) == 3:
        raise ValueError("matrix has trivial kernel")
    if len(pivots) < 2:
        raise InvariantError("kernel of dimension > 1: scheme not reduced at a point")
    return tuple(domain.box(v) for v in kernel_vector(rows, pivots))


def _check_not_collinear(found, domain):
    """Raise when three found points (point, multiplicity) are collinear."""
    if len(found) == 3:
        rows = [[domain.unbox(c) for c in p] for p, _ in found]
        if len(_eliminate(rows, domain.modulus)) < 3:
            raise InvariantError(
                "scheme points are collinear: stability contract violated"
            )
