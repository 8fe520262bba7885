"""Classification of presentation matrices into the moduli strata.

A 3x3 matrix with degrees (3,2,2) -> (1,1,1) presents a sheaf of the open
stratum; a 2x2 matrix with degrees (3,3) -> (2,0) presents one of the
closed stratum.  The classifier extracts the supporting quartic, the
length-3 scheme, the line/cubic splitting, or the boundary data.
"""

from .field import InvariantError
from .gcd import (
    binary_roots,
    common_linear_factor,
    line_intersection,
    lines_dividing_all,
    normalize_point,
)
from .matrices import SHAPES, FormMatrix, det, stable_kronecker_minors
from .poly import (
    Form,
    MultiPoly,
    _eliminate,
    coefficient_rows,
    dot,
    kernel_vector,
    linear_rank,
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
    BoundaryBprime when the determinant vanishes; M01 when the minors share
    a linear factor; M00 otherwise.
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
    quartic = Form(dot([(q.poly, minor.poly)
                        for q, minor in zip(a.row(0), minors)], a.domain), 4)
    if not quartic:
        return _boundary_report(a, k, minors)
    line = common_linear_factor(minors)
    if line is not None:
        cubic = Form(quartic.poly.exact_div(line.poly), 3)
        return StratumReport(
            M01,
            quartic=quartic,
            line=line,
            cubic=cubic,
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
    line = common_linear_factor(minors)
    if line is None:
        return StratumReport(
            BOUNDARY,
            diagnostics=(
                "zero determinant but coprime minors: top row lies in the "
                "row space of the linear part (degenerate presentation)"
            ),
            kronecker=k,
        )
    point = None
    diagnostics = "zero determinant over the boundary line"
    params = boundary_parameters(a)
    if params is not None:
        _, w = params
        try:
            point = line_intersection(line, w)
            diagnostics += (
                f"; boundary parameter w = {w.serialize()} recovered from "
                "the top row"
            )
        except ValueError:
            pass
    else:
        diagnostics += "; matrix not in the boundary normal form, w not recovered"
    return StratumReport(
        BOUNDARY, line=line, point=point, diagnostics=diagnostics, kronecker=k
    )


def boundary_matrix(xbar0, w):
    """The boundary normal form [[0, -x2*w, x1*w], [-x2, 0, xbar0],
    [x1, -xbar0, 0]] for linear forms xbar0 and w; its determinant is 0."""
    domain = xbar0.domain
    x1 = MultiPoly.variable(domain, 1)
    x2 = MultiPoly.variable(domain, 2)
    zero = MultiPoly.zero(domain)
    return FormMatrix.from_polys(*SHAPES["res0"], [
        [zero, -x2 * w.poly, x1 * w.poly],
        [-x2, zero, xbar0.poly],
        [x1, -xbar0.poly, zero],
    ])


def boundary_parameters(a):
    """(xbar0, w) when a is boundary_matrix(xbar0, w) with w nonzero,
    else None; w is read off entry (0, 1)."""
    if not isinstance(a, FormMatrix) \
            or (a.src_degrees, a.tgt_degrees) != SHAPES["res0"] or not a[0, 1]:
        return None
    w = a[0, 1].poly.try_exact_div(-MultiPoly.variable(a.domain, 2))
    if w is None:
        return None
    xbar0, w = a[1, 2], Form(w, 1)
    return (xbar0, w) if boundary_matrix(xbar0, w) == a else None


def classify_res1(a):
    """Classify a (3,3) -> (2,0) presentation matrix.

    The first column holds the two linear forms cutting out the point, the
    second column the two cubics; the determinant is the quartic.
    """
    if not isinstance(a, FormMatrix) \
            or (a.src_degrees, a.tgt_degrees) != SHAPES["res1"]:
        return StratumReport(INVALID, diagnostics="expected shape res1")
    z1, z2 = a[0, 0], a[1, 0]
    if linear_rank([z1, z2], 1) < 2:
        return StratumReport(
            NOT_STABLE, diagnostics="dependent linear forms in the z column"
        )
    point = line_intersection(z1, z2)
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
    # det(u*Z + v*W) as a binary cubic in u = x1, v = x2
    cubic = det([[MultiPoly.from_raw(domain, {(0, 1, 0): a, (0, 0, 1): b})
                  for a, b in zip(z_row, w_row)]
                 for z_row, w_row in zip(z, w)])
    if not cubic:
        raise ValueError("pencil determinant vanishes identically")
    roots, nonsplit = binary_roots(Form(cubic, 3))
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


def extension_data(report):
    """The (line, cubic) splitting of an M01 determinant."""
    if report.label != M01:
        raise ValueError("extension data needs an M01 report")
    quotient = report.quartic.poly.try_exact_div(report.line.poly)
    if quotient is None:
        raise InvariantError("M01 invariant breach: line does not divide det")
    return report.line, Form(quotient, 3)
