"""One-parameter families through the boundary: blow-up charts, limits,
the twisted-ideal resolution builder, the 5x4 reduction chain, and
Fitting-support extraction.

The limit of a family A + tB at the boundary is the tangent quartic
f_{A,B}, the t-linear coefficient of det(A + tB), taken with the point
Z(xbar0, w).
"""

import re

from .field import InvariantError, check_json_list, check_json_type, load_json
from .gcd import gcd_fold, line_intersection
from .matrices import (
    SHAPES,
    AddMultipleOfCol,
    AddMultipleOfRow,
    DegreeError,
    FormMatrix,
    ScaleCol,
    ScaleRow,
    _derived,
    apply_ops,
    matrix_from_json_dict,
)
from .poly import (
    BinaryForm,
    Form,
    MultiPoly,
    ParseError,
    _graded,
    _quotient,
    key_exponent,
    keys_of_degree,
    parse_form,
)
from .strata import boundary_matrix, boundary_parameters

DEFORM_SRC = (3, 3, 2, 2, 2)
DEFORM_TGT = (2, 1, 1, 1)


class ChartError(ValueError):
    """Raised when a blow-up chart contract is violated."""


class BlowupChartPoint:
    """A point (A, t, B) of a blow-up chart around the boundary.

    A is the zero-determinant normal form, B the normal direction whose
    chart coefficient is 1, and t the chart parameter; the blow-down map
    sends the triple to A + t*B.
    """

    def __init__(self, a, t, b, chart):
        """The linear part of A = boundary_matrix(xbar0, w) is [[-x2, 0,
        xbar0], [x1, -xbar0, 0]], whose signed maximal minors are
        xbar0*(xbar0, x1, x2): they span rank 3, and the part is stable,
        exactly when xbar0 has a nonzero x0 coefficient, which is read off
        with no minor computed."""
        self.a = a
        self.t = a.domain.scalar(t)
        self.b = b
        self.chart = chart
        self.params = _extract_chart_params(a, b)
        if not _chart_coefficient(self.params, chart) == a.domain.one:
            raise ChartError(f"coefficient for chart {chart!r} must equal 1")
        if not self.params["xbar0"].raw.get(keys_of_degree(1)[0]):
            raise ChartError("base matrix must have a stable linear part")

    def total(self, t=None):
        """The matrix A + t*B of the family at parameter t."""
        t = self.t if t is None else self.a.domain.scalar(t)
        return self.a + self.b.scaled(t)

    def to_json_dict(self, t_values=()):
        return {
            "schema": 1,
            "A": self.a.to_json_dict(),
            "B": self.b.to_json_dict(),
            "chart": self.chart,
            "t_values": [str(t) for t in t_values],
        }


def _extract_chart_params(a, b):
    """Read (xbar0, w, q_i, a, b, c, d) off the chart normal forms."""
    if (a.src_degrees, a.tgt_degrees) != SHAPES["res0"]:
        raise ChartError("base matrix must have the res0 shape")
    if (b.src_degrees, b.tgt_degrees) != SHAPES["res0"]:
        raise ChartError("direction matrix must have the res0 shape")
    params = boundary_parameters(a)
    if params is None:
        raise ChartError("base matrix is not in the boundary normal form")
    xbar0, w = params
    if any(key_exponent(k)[0] for k in w.raw):
        raise ChartError("w must be a form in x1, x2")
    # direction matrix template
    if b[1, 0] or b[1, 2] or b[2, 0]:
        raise ChartError("direction matrix is not in the chart normal form")
    coeff_c = _linear_coefficient(b[1, 1], 1, "c entry must be c*x1")
    ab_entry = b[2, 1]
    coeff_a = ab_entry.coefficient((0, 1, 0))
    coeff_b = ab_entry.coefficient((0, 0, 1))
    if any(key_exponent(k)[0] for k in ab_entry.raw):
        raise ChartError("entry (2,1) of the direction must be a*x1 + b*x2")
    coeff_d = _linear_coefficient(b[2, 2], 2, "d entry must be d*x2")
    q0, q1, q2 = b[0, 0], b[0, 1], b[0, 2]
    if any(key_exponent(k)[0] for k in q1.raw):
        raise ChartError("q1 must not involve x0")
    if any(key_exponent(k)[:2] != (0, 0) for k in q2.raw):
        raise ChartError("q2 must involve only x2")
    return {
        "xbar0": xbar0,
        "w": w,
        "q0": q0,
        "q1": q1,
        "q2": q2,
        "a": coeff_a,
        "b": coeff_b,
        "c": coeff_c,
        "d": coeff_d,
    }


def _linear_coefficient(entry, var, message):
    key = keys_of_degree(1)[var]
    if any(k != key for k in entry.raw):
        raise ChartError(message)
    return entry.coefficient(key_exponent(key))


def _chart_coefficient(params, chart):
    """The coefficient a chart names: a, b, c, d, or that of
    x0^e0*x1^e1*x2^e2 in q0, q1 or q2, named as in q0[e0,e1,e2]."""
    if chart in ("a", "b", "c", "d"):
        return params[chart]
    for name in ("q0", "q1", "q2"):
        if chart.startswith(name + "["):
            match = re.fullmatch(r"\[([0-9]{1,9}),([0-9]{1,9}),([0-9]{1,9})\]",
                                 chart[len(name):])
            if match is None:
                raise ChartError(f"chart: {chart!r} is not of the form "
                                 f"{name}[e0,e1,e2]")
            exps = tuple(map(int, match.groups()))  # q0, q1, q2 are quadrics
            return params[name].coefficient(exps) if sum(exps) == 2 else 0
    raise ChartError(f"unknown chart coordinate {chart!r}")


def make_blowup_chart_point(
    domain,
    alpha,
    beta,
    gamma,
    delta,
    q0_text,
    q1_text,
    q2_text,
    ab_cd,
    chart,
    t,
):
    """Assemble a BlowupChartPoint from chart coordinates.

    (gamma, delta) are the boundary parameters of w = gamma*x1 + delta*x2;
    ab_cd is the (a, b, c, d) quadruple of the direction matrix.  A q text's
    ParseError is prefixed with its name, as in "q1: degree mismatch: ...".
    """
    ca, cb, cc, cd = [domain.scalar(v) for v in ab_cd]
    x0, x1, x2 = (_graded(domain, {k: 1}, 1) for k in keys_of_degree(1))
    xbar0 = x0 + x1 * domain.scalar(alpha) + x2 * domain.scalar(beta)
    w = x1 * domain.scalar(gamma) + x2 * domain.scalar(delta)
    a = boundary_matrix(xbar0, w)
    q = []
    for name, text in (("q0", q0_text), ("q1", q1_text), ("q2", q2_text)):
        try:
            q.append(parse_form(text, 2, domain))
        except ParseError as exc:
            raise type(exc)(f"{name}: {exc}") from None
    zero = MultiPoly.zero(domain)
    b = FormMatrix(*SHAPES["res0"], [
        q,
        [zero, x1 * cc, zero],
        [zero, x1 * ca + x2 * cb, x2 * cd],
    ])
    return BlowupChartPoint(a, t, b, chart)


def family_limit(pt):
    """The limit (quartic, point) of the family A + t*B as t -> 0.

    The limit quartic is the tangent quartic f_{A,B}, the t-linear
    coefficient of det(A + tB); on the chart normal forms it equals
    xbar0*(xbar0*q0 + x1*q1 + x2*q2) - w*(c*x1^3 + a*x1^2*x2 + b*x1*x2^2
    + d*x2^3), row 0 of the expansion giving the first product and rows 1
    and 2 the second.  The point is Z(xbar0, w); a zero f means the
    direction is tangent to the boundary and the chart contract is
    breached.
    """
    quartic = tangent_quartic(pt.a, pt.b)
    if not quartic:
        raise ChartError(
            "degenerate direction: the limit quartic vanishes (direction "
            "tangent to the boundary)"
        )
    point = line_intersection(pt.params["xbar0"], pt.params["w"])
    if quartic.evaluate(point):
        raise InvariantError("limit quartic must vanish at the limit point")
    return quartic, point


def tangent_quartic(a, b):
    """The t-linear coefficient of det(A + tB), the limit quartic when
    det A = 0.

    Equals the sum of the determinants with one row of A replaced by the
    matching row of B, a form of the determinant's degree.  B must have
    A's degrees, which is checked once; then each replaced row keeps its
    entries' degrees, and the replaced matrices are not checked again.
    """
    if (b.src_degrees, b.tgt_degrees) != (a.src_degrees, a.tgt_degrees):
        raise DegreeError("direction matrix must have the base's degrees")
    rows = a.entries
    dets = [_derived(a.src_degrees, a.tgt_degrees,
                     [*rows[:i], b.row(i), *rows[i + 1:]]).determinant()
            for i in range(a.nrows)]
    return sum(dets[1:], dets[0])


# ---- deformation reduction chain --------------------------------------


class DeformationInstance:
    """Parameters of the 5x4 boundary deformation matrix.

    xbar0 and w are linear forms, q quadratics, y and z linear triples, and
    t a nonzero scalar.
    """

    def __init__(self, domain, xbar0, w, q, y, z, t):
        self.domain = domain
        self.xbar0 = xbar0
        self.w = w
        self.q = list(q)
        self.y = list(y)
        self.z = list(z)
        self.t = domain.scalar(t)
        if not self.t:
            raise ChartError("deformation parameter t must be nonzero")

    def initial_matrix(self):
        """The family A + t*B, A = boundary_matrix(xbar0, w) and B the rows
        q, y, z, with a zero top row and left column and a unit bottom row
        added around it."""
        b = FormMatrix(*SHAPES["res0"], [self.q, self.y, self.z])
        family = boundary_matrix(self.xbar0, self.w) + b.scaled(self.t)
        zero = MultiPoly.zero(self.domain)
        one = MultiPoly.constant(self.domain, 1)
        rows = [[zero] * 4]
        rows += [[zero, *row] for row in family.entries]
        rows.append([one, zero, zero, zero])
        return FormMatrix(DEFORM_SRC, DEFORM_TGT, rows)

    def reduction_ops(self):
        """The six recorded elementary-operation steps of the reduction."""
        domain = self.domain
        x1 = Form(MultiPoly.variable(domain, 1), 1)
        x2 = Form(MultiPoly.variable(domain, 2), 1)
        inv_t = self.t.inverse()
        return [
            [AddMultipleOfRow(1, 4, self.w)],
            [AddMultipleOfCol(2, 0, x2), AddMultipleOfCol(3, 0, -x1)],
            [AddMultipleOfRow(0, 4, self.xbar0)],
            [AddMultipleOfRow(0, 2, x1), AddMultipleOfRow(0, 3, x2)],
            [ScaleRow(0, inv_t), ScaleRow(1, inv_t)],
            [ScaleCol(0, self.t)],
        ]

    def expected_trace(self):
        """The printed intermediate matrices, one per reduction step."""
        domain = self.domain
        x1, x2 = MultiPoly.variable(domain, 1), MultiPoly.variable(domain, 2)
        t = self.t
        inv_t = t.inverse()
        w, xb, q, y, z = self.w, self.xbar0, self.q, self.y, self.z
        zero = MultiPoly.zero(domain)
        one = MultiPoly.constant(domain, 1)
        row1 = [w] + [f * t for f in q]
        row2 = [zero, -x2 + y[0] * t, y[1] * t, xb + y[2] * t]
        row3 = [zero, x1 + z[0] * t, -xb + z[1] * t, z[2] * t]
        row4 = [one, zero, x2, -x1]
        top = [x1 * y[k] + x2 * z[k] for k in range(3)]
        steps = [
            [[zero] * 4,
             [w, q[0] * t, -w * x2 + q[1] * t, w * x1 + q[2] * t],
             row2, row3, [one, zero, zero, zero]],
            [[zero] * 4, row1, row2, row3, row4],
            [[xb, zero, xb * x2, -xb * x1], row1, row2, row3, row4],
            [[xb] + [f * t for f in top], row1, row2, row3, row4],
            [[xb * inv_t] + top, [w * inv_t] + q, row2, row3, row4],
            [[xb] + top, [w] + q, row2, row3, [one * t] + row4[1:]],
        ]
        return [FormMatrix(DEFORM_SRC, DEFORM_TGT, rows) for rows in steps]

    def expected_final(self):
        """The normal form that the reduction chain ends in."""
        return self.expected_trace()[-1]


def deformation_reduction_trace(instance):
    """Replay the reduction steps; returns the list of matrices after each."""
    matrix = instance.initial_matrix()
    trace = [matrix]
    for ops in instance.reduction_ops():
        matrix = apply_ops(matrix, ops)
        trace.append(matrix)
    return trace


def deformation_normal_form(instance):
    """The reduced 5x4 matrix, produced by replaying the recorded steps."""
    final = deformation_reduction_trace(instance)[-1]
    expected = instance.expected_final()
    if final != expected:
        raise InvariantError("reduction chain did not reach the normal form")
    return final


# ---- twisted ideal resolution -----------------------------------------


class TwistedIdealResolution:
    """A resolution datum (w, h) with f = l*h - w*g.

    semistable is False exactly when l divides f, in which case the w = 0
    witness is returned.
    """

    def __init__(self, line, g, w, h, semistable):
        self.line = line
        self.g = g
        self.w = w
        self.h = h
        self.semistable = semistable

    def matrix(self):
        return FormMatrix(
            *SHAPES["res1"],
            [[self.line, self.g], [self.w, self.h]],
        )


def build_twisted_ideal_resolution(f, l, g):
    """Solve f = l*h - w*g for a linear w and cubic h, by division by l.

    The remainder of a form by l is free of l's leading variable v, and
    taking it is the ring map that solves l = 0 for v, so f = l*h - w*g
    gives r = -wbar*gbar for the remainders r, gbar and wbar of f, g and w.
    When l divides f (r = 0) the w = 0 solution, h the quotient, is
    returned and flagged non-semistable.  Otherwise wbar = -r/gbar by one
    exact division, and f is in the ideal (l, g) exactly when gbar is
    nonzero and the division is exact; else this raises.  Any lift of wbar
    is w = wbar + c*l, and since l*h = w*g with l not dividing g forces
    w to be a multiple of l, the solutions are (h + c*g, w + c*l) for the
    scalars c.  The one taken has no term in l's largest-index variable:
    a Gauss-Jordan solve over the columns of h and then w finds that
    variable's column to be the one free column and sets it to 0.  Then
    h = (f + w*g)/l by one more exact division.
    """
    domain = f.domain
    if f.degree != 4 or l.degree != 1 or g.degree != 3:
        raise ValueError("need degrees (4, 1, 3)")
    if not l or not g:
        raise ValueError("line and cubic must be nonzero")
    quotient, r = f.divmod(l)
    if not r:
        return TwistedIdealResolution(l, g, Form.zero(domain, 1),
                                      _graded(domain, quotient.raw, 3),
                                      semistable=False)
    g_bar = g.divmod(l)[1]
    q = r.try_exact_div(g_bar) if g_bar else None  # q = -wbar
    if q is None:
        raise ValueError("quartic is not in the ideal (l, g): Z is not on C")
    p, last = domain.modulus, min(l.raw)  # the key of l's last variable
    top, lead = q.raw.get(last, 0), l.raw[last]
    c = top * pow(lead, -1, p) if p else _quotient(top, lead)
    w = _graded(domain, (l * c - q).raw, 1)
    h = _graded(domain, (f + w * g).exact_div(l).raw, 3)
    result = TwistedIdealResolution(l, g, w, h, semistable=True)
    if l * result.h - result.w * g != f:
        raise InvariantError("resolution does not satisfy f = l*h - w*g")
    return result


# ---- flag limits -------------------------------------------------------


class FlagDatum:
    """A quartic, a line, and three binary roots on the line."""

    def __init__(self, quartic, line, z_roots):
        if len(z_roots) != 3:
            raise ValueError("need exactly three binary roots (with repeats)")
        for s0, t0 in z_roots:
            if not (s0 or t0):
                raise ValueError(f"binary root [{s0}:{t0}] has both "
                                 "coordinates zero")
        self.quartic = quartic
        self.line = line
        self.z_roots = list(z_roots)


def flag_limit(datum):
    """The residual point (L n C) minus Z on the quartic.

    Restrict the quartic to the line, divide out the three prescribed
    binary roots, and map the remaining root back into the plane.
    """
    f, l = datum.quartic, datum.line
    domain = f.domain
    restriction = f.restrict_to_line(l)
    if not restriction:
        raise ValueError("line is contained in the quartic")
    s, t = MultiPoly.variable(domain, 1), MultiPoly.variable(domain, 2)
    for s0, t0 in datum.z_roots:
        # the binary linear form t0*s - s0*t vanishes at the root [s0:t0]
        restriction = restriction.try_exact_div(s * t0 - t * s0)
        if restriction is None:
            raise ValueError(
                "prescribed roots are not contained in the line section")
    # a binary linear form a*s + b*t remains; its root is always rational
    a, b = BinaryForm(restriction, 1).coefficients
    s1, t1 = -b, a
    point = l.line_point(s1, t1)
    if f.evaluate(point):
        raise InvariantError("residual point must lie on the quartic")
    return point


# ---- Fitting support ---------------------------------------------------


def fitting_support(m):
    """Normalized GCD of the maximal minors of a 5x4 presentation."""
    if m.src_degrees != DEFORM_SRC or m.tgt_degrees != DEFORM_TGT:
        raise DegreeError("expected the (3,3,2,2,2) -> (2,1,1,1) shape")
    minors = [mm for mm in m.maximal_minors() if mm]
    if not minors:
        raise ValueError("all maximal minors vanish: rank-deficient matrix")
    return gcd_fold(minors)


# ---- family files ------------------------------------------------------


def family_from_json_dict(data, domain):
    """Parse a family description; malformed input raises a ValueError
    that names its JSON path."""
    check_json_type(data, "", dict)
    a, b = (_json_matrix(data, key, domain) for key in ("A", "B"))
    texts = check_json_list(data.get("t_values", []), "t_values", str)
    t_values = []
    for i, text in enumerate(texts):
        try:
            t_values.append(domain.parse(text))
        except ValueError as exc:
            raise ValueError(f"t_values[{i}]: {exc}") from exc
    chart = check_json_type(data.get("chart"), "chart", str)
    return BlowupChartPoint(a, domain.one, b, chart), t_values


def _json_matrix(data, key, domain):
    try:
        return matrix_from_json_dict(data.get(key), domain)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def load_family(path, domain):
    return family_from_json_dict(load_json(path), domain)
