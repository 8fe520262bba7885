"""Exact multivariate GCDs and linear-factor extraction.

The multivariate GCD is one kernel search on the package's Gauss-Jordan
elimination.  Write a = g*a' and b = g*b' with a', b' coprime.  The
equation u*a = v*b has a nonzero solution with deg u <= deg b - k and
deg v <= deg a - k exactly when k <= deg g: then (b', a') is one, and in
any solution a' divides v, so deg a' <= deg a - k.  At k = deg g the
solutions are the multiples of (b', a').  So walking k down from
min(deg a, deg b), the first k with a nonzero kernel vector (u, v) gives
g = a / v, an exact division (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 6).  Two forms need only the monomials of u and v of exactly
those degrees, since the homogeneous parts of a solution are solutions.

Linear factors are extracted through pencils of lines: restricting to a
pencil turns divisibility by a line into a root of a binary form, a form
in x1 and x2 alone.  The pencil GCD of those binary forms is
``gcd_fold``, the package's one GCD.

The roots [s:t] of a binary form f are the root [1:0], then the roots r
of f(r, 1), each divided out of f by its line as often as it divides.
Over GF(p) the roots r are those of g = gcd(f(x1, 1), x1^p - x1), with
x1^p powered modulo f(x1, 1), and g is split by gcd(g, (x1 + a)^((p-1)/2)
- 1) for a = 0, 1, 2, ... (Cantor and Zassenhaus, Math. Comp. 36, 1981;
Modern Computer Algebra, ch. 14), so every odd prime is answered.  Each
of these GCDs runs on the homogenizations, binary forms in x1 and x2,
and is set back at x2 = 1.  Over QQ the roots r are lifted GF(p) roots:
those of the squarefree part of f(x1, 1) at a prime p where each is
simple, Hensel-lifted mod a power of p that bounds the size of a rational
root and read back by rational reconstruction (Modern Computer Algebra,
ch. 15 and section 5.10).  They come in the rational root theorem's
candidate order, with no divisor enumerated.
"""

from fractions import Fraction
from math import lcm

from .field import GF, QQ, InvariantError, _is_prime, evaluate_raw
from .poly import (
    NVARS,
    BinaryForm,
    Form,
    MultiPoly,
    _eliminate,
    _primitive,
    coefficient_rows,
    kernel_vector,
    monomials_of_degree,
    solve_linear,
)


def multivariate_gcd(a, b):
    """A GCD of two polynomials over QQ or F_p.

    Normalized so the graded-lex leading coefficient is 1; gcd(0, b) is the
    normalized b.  See the module docstring for the kernel search.
    """
    if isinstance(a, Form):
        a = a.poly
    if isinstance(b, Form):
        b = b.poly
    if a.domain != b.domain:
        a._coerce(b)  # raises FieldMismatchError
    if not a:
        return b.normalized()
    if not b:
        return a.normalized()
    domain = a.domain
    da, db = a.total_degree(), b.total_degree()
    # two forms need only the monomials of top degree in u and v
    forms = a.is_homogeneous() and b.is_homogeneous()
    neg_b = (-b).raw
    for k in range(min(da, db), 0, -1):
        # unknowns: u's coefficients (columns m*a), then v's (columns m*(-b))
        shifts = [(m, a.raw) for d in range((db - k) * forms, db - k + 1)
                  for m in monomials_of_degree(d)]
        n_u = len(shifts)
        shifts += [(m, neg_b) for d in range((da - k) * forms, da - k + 1)
                   for m in monomials_of_degree(d)]
        rows = {}
        for j, ((m0, m1, m2), terms) in enumerate(shifts):
            for (e0, e1, e2), c in terms.items():
                rows.setdefault((m0 + e0, m1 + e1, m2 + e2), {})[j] = c
        matrix = [[row.get(j, 0) for j in range(len(shifts))]
                  for row in rows.values()]
        x = kernel_vector(matrix, _eliminate(matrix, domain.modulus))
        if x is not None:
            v = MultiPoly.from_raw(domain, {m: c for (m, _), c in
                                            zip(shifts[n_u:], x[n_u:])})
            g = a.try_exact_div(v)
            if g is None:
                raise InvariantError("the kernel cofactor does not divide a")
            return g.normalized()
    return MultiPoly.constant(domain, 1)


def gcd_fold(polys):
    """GCD of a sequence of polynomials or forms, normalized.

    Two shortcuts give the same result as folding multivariate_gcd over
    every input: the fold stops once the running GCD is a constant, since
    nothing can shrink it further, and an input that the running GCD
    divides exactly leaves it as it is, so no GCD is run for that input.
    """
    total = None
    for p in polys:
        if isinstance(p, Form):
            p = p.poly
        if total is None or not total:
            total = p.normalized()
        elif total.total_degree() == 0:
            break
        elif p.try_exact_div(total) is None:
            total = multivariate_gcd(total, p)
    if total is None:
        raise ValueError("empty input")
    return total


# ---- binary forms: rational roots -------------------------------------


def _rational_roots(f):
    """The distinct roots of f, a polynomial in x1 over QQ, in the rational
    root theorem's candidate order: by |numerator|, denominator, sign.

    Each root n/d of the squarefree part h of f, with primitive integer
    coefficients, has n | a_low and d | a_high, its lowest and highest
    nonzero coefficients.  The roots of h mod the first prime p >= 101
    that keeps its degree and every root simple are Hensel-lifted mod
    p^k > 2*|a_low*a_high| and read back by rational reconstruction."""
    if f.total_degree() < 1:
        return []
    h = f.exact_div(_gcd_in_x1(f, _derivative(f)))
    h = h * lcm(*[c.denominator for c in h.raw.values()])
    h = MultiPoly.from_raw(QQ, dict(zip(h.raw, _primitive([*h.raw.values()]))))
    low, high = (abs(h.raw[e]) for e in (min(h.raw), max(h.raw)))
    p = 99
    while True:
        p += 2
        if _is_prime(p) and high % p:
            h_p = MultiPoly.from_raw(GF(p), h.raw)
            slope_at = _derivative(h_p).evaluate
            modular = [(r, slope_at((0, r, 0))) for r in _roots_gf(h_p)]
            if all(slope for _, slope in modular):
                break
    roots = set()
    for r, slope in modular:
        inverse, m = slope.inverse().value, p
        while m <= 2 * low * high:
            m *= p
            r = (r - evaluate_raw(h.raw, (0, r, 0)) * inverse) % m
        root = _reconstruct(r, m, low)
        if not evaluate_raw(h.raw, (0, root, 0)):
            roots.add(root)
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator,
                                        r < 0))


def _derivative(f):
    """df/dx1 of a polynomial f in x1."""
    return MultiPoly.from_raw(f.domain, {(0, e - 1, 0): c * e
                                         for (_, e, _), c in f.raw.items()})


def _reconstruct(r, m, n_max):
    """The fraction n/d = r mod m with |n| <= n_max and 0 < d <= m/(n_max+1)
    if there is one, by the half-extended Euclidean algorithm (Modern
    Computer Algebra, section 5.10)."""
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > n_max:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1)


def _roots_gf(f):
    """The distinct roots r of f, a polynomial in x1 over GF(p), ascending:
    those of g = gcd(f, x1^p - x1), split by
    gcd(g, (x1 + a)^((p - 1)/2) - 1) for a = 0, 1, 2, ..., which keeps the
    roots r with r + a a nonzero square (Cantor-Zassenhaus)."""
    domain, p = f.domain, f.domain.p
    x1 = MultiPoly.variable(domain, 1)
    pending, roots = [_gcd_in_x1(f, pow(x1, p, f) - x1)], []
    while pending:
        g = pending.pop()
        d = g.total_degree()
        if d == 1:  # g = x1 - r, monic
            roots.append(-g.raw.get((0, 0, 0), 0) % p)
        elif d > 1:
            w, a = g, 0
            while not 0 < w.total_degree() < d:
                w = _gcd_in_x1(g, pow(x1 + a, (p - 1) // 2, g) - 1)
                a += 1
            pending += [w, g.exact_div(w)]
    return sorted(roots)


def _gcd_in_x1(f, g):
    """The monic GCD of f and g, polynomials in x1, taken on their lifts
    x2^deg(h) * h(x1/x2), binary forms whose GCD takes only the top degree,
    and set at x2 = 1.  A lift keeps its x1^deg term, so x2 divides neither
    lift nor their GCD, whose graded-lex leading term is then x1^k."""
    lifted = []
    for h in (f, g):
        d = h.total_degree()
        lifted.append(MultiPoly.from_raw(h.domain, {
            (0, e1, d - e1): c for (_, e1, _), c in h.raw.items()}))
    return MultiPoly.from_raw(f.domain, {
        (0, e1, 0): c
        for (_, e1, _), c in multivariate_gcd(*lifted).raw.items()})


def binary_roots(form):
    """Rational roots [s:t] of a binary form, a form in s = x1 and t = x2,
    with multiplicity.

    Returns (roots, nonsplit_degree) where roots are (s, t) scalar pairs and
    nonsplit_degree is the degree of the factor with no rational root.  The
    root [1:0] comes first, then the roots [r:1] over GF(p) ascending by
    value and over QQ in the rational root theorem's candidate order; each
    is peeled off by exact division by its line as often as it divides.
    """
    domain = form.domain
    if not form:
        raise ValueError("zero binary form")
    if any(e[0] for e in form.poly.raw):
        raise ValueError("a binary form has no x0 term")
    if not domain.is_field:
        raise TypeError("roots need a field domain")
    f = MultiPoly.from_raw(domain, {(0, e1, 0): c for (_, e1, _), c
                                    in form.poly.raw.items()})  # f(x1, 1)
    distinct = (_roots_gf if domain.modulus else _rational_roots)(f)
    x1, x2 = (MultiPoly.variable(domain, i) for i in (1, 2))
    poly, roots = form.poly, []
    for s, t in [(1, 0)] + [(r, 1) for r in distinct]:
        root = (domain.scalar(s), domain.scalar(t))
        line = x1 * t - x2 * s  # vanishes at [s:t]
        while (q := poly.try_exact_div(line)) is not None:
            roots.append(root)
            poly = q
    return roots, poly.total_degree()


# ---- lines ------------------------------------------------------------


_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # exponents of x0, x1, x2


def _line_form(domain, coeffs):
    terms = {e: domain.scalar(c) for e, c in zip(_UNITS, coeffs)}
    return Form(MultiPoly(domain, terms), 1)


def _pencil_basis(domain, point):
    """Two independent lines through a projective point."""
    pt = [domain.scalar(v) for v in point]
    if not any(pt):
        raise ValueError("projective point must not be all zero")
    pivot = max(i for i in range(3) if pt[i])
    others = [i for i in range(3) if i != pivot]
    lines = []
    for o in others:
        coeffs = [domain.zero] * 3
        # pt[pivot]*x_o - pt[o]*x_pivot vanishes at pt
        coeffs[o] = pt[pivot]
        coeffs[pivot] = -pt[o]
        lines.append(_line_form(domain, coeffs))
    return lines


class LineSearchResult:
    """Outcome of a dividing-line search.

    lines: degree-1 Forms with multiplicity (repeated entries);
    nonsplit_degree: degree of the remainder factor with no rational root,
    witnessing lines that exist only over an extension field.
    """

    def __init__(self, lines, nonsplit_degree):
        self.lines = lines
        self.nonsplit_degree = nonsplit_degree

    def __repr__(self):
        return (
            f"LineSearchResult(lines={self.lines!r}, "
            f"nonsplit_degree={self.nonsplit_degree})"
        )


def _pencil_restriction_coefficients(form, l1, l2, point):
    """Coefficients of form restricted to the pencil line s*l1 + t*l2.

    The line through `point` with pencil parameter [s:t] is spanned by
    `point` and a second point q(s, t) that is linear in (s, t); the
    restriction of the form to that line is a binary form in the line
    parameter whose coefficients are binary forms in (s, t).  A parameter
    [s:t] is a common root of all the returned coefficients exactly when
    the corresponding line divides the form.
    """
    domain = form.domain
    # q(s, t) = t*u - s*v with l1(u)=1, l2(u)=0, l1(v)=0, l2(v)=1
    u = _dual_point(l1, l2, domain)
    v = _dual_point(l2, l1, domain)
    pt = [domain.unbox(c) for c in point]
    # x_i -> pt[i]*y0 - v[i]*y1 + u[i]*y2 with (y1, y2) = (s, t); the terms
    # in y0^(d-k) give the coefficient of the line parameter's k-th power
    restricted = form.poly.substitute([
        MultiPoly.from_raw(domain, dict(zip(_UNITS, (pt[i], -v[i], u[i]))))
        for i in range(NVARS)])
    d = form.degree
    slices = [{} for _ in range(d + 1)]
    for (e0, e1, e2), c in restricted.raw.items():
        slices[d - e0][(0, e1, e2)] = c
    return [BinaryForm(MultiPoly.from_raw(domain, terms), k)
            for k, terms in enumerate(slices)]


def _dual_point(l1, l2, domain):
    """The raw coordinates of a point with l1 = 1 and l2 = 0."""
    point = solve_linear(coefficient_rows([l1, l2], 1), [1, 0],
                         domain.modulus)
    if point is None:
        raise ValueError("degenerate pencil basis")
    return point


def line_intersection(l1, l2):
    """The projective point Z(l1, l2) of two independent lines."""
    (a0, a1, a2), (b0, b1, b2) = coefficient_rows([l1, l2], 1)
    box = l1.domain.box  # over GF(p) a raw value may be a multiple of p
    point = (box(a1 * b2 - a2 * b1), box(a2 * b0 - a0 * b2),
             box(a0 * b1 - a1 * b0))
    if not any(point):
        raise ValueError("lines are dependent")
    return point


def lines_dividing_all(forms, through=None):
    """All rational lines dividing every input form.

    With `through` given, only lines in the pencil through that point are
    considered; the pencil restriction reduces the search to rational roots
    of a binary-form GCD.  Without it, candidate base points are taken from
    the intersections of the folded GCD with a reference line, and every
    candidate line is verified by exact division against all inputs.
    """
    forms = [f for f in forms if f]
    if not forms:
        raise ValueError("need at least one nonzero form")
    domain = forms[0].domain
    if through is not None:
        return _pencil_lines(forms, through, domain)
    g = gcd_fold(forms)
    if g.total_degree() == 0:
        return LineSearchResult([], 0)
    lines, nonsplit = _linear_factors(Form(g, g.total_degree()))
    verified = []
    for line in lines:
        if all(f.poly.try_exact_div(line.poly) is not None for f in forms):
            verified.append(line)
    return LineSearchResult(verified, nonsplit)


def _pencil_lines(forms, through, domain):
    """Lines through the point `through` = P that divide every form.

    If a line L through P divides f = L*g, then grad f(P) = g(P) * grad L.
    So when grad f(P) != 0, the tangent line T = sum_i (df/dx_i)(P) * x_i
    is the only candidate, over the algebraic closure too, and it divides
    f at most once, since T^2 | f would give grad f(P) = 0.  The answer is
    then T alone when T(P) = 0 and T divides every form, and no line
    otherwise.  Only when every form is singular at P does the generic
    pencil search below run.
    """
    point = [domain.unbox(c) for c in through]
    for f in forms:
        tangent = _tangent_line(f.poly, point)
        if tangent:
            if any(g.poly.try_exact_div(tangent) is None for g in forms) \
                    or tangent.evaluate(point):
                return LineSearchResult([], 0)
            return LineSearchResult([Form(tangent, 1).normalized()], 0)
    l1, l2 = _pencil_basis(domain, through)
    coeff_forms = []
    for f in forms:
        coeff_forms.extend(
            bf for bf in _pencil_restriction_coefficients(f, l1, l2, through)
            if bf
        )
    if not coeff_forms:
        # every pencil line divides every form; cannot happen for nonzero
        # quartics, so report it as a degenerate input
        raise ValueError("all pencil restrictions vanish identically")
    g = gcd_fold(coeff_forms)
    if g.total_degree() == 0:
        return LineSearchResult([], 0)
    roots, nonsplit = binary_roots(Form(g, g.total_degree()))
    out = [
        Form(l1.poly * s + l2.poly * t, 1).normalized() for s, t in roots
    ]
    return LineSearchResult(out, nonsplit)


def _tangent_line(poly, point):
    """sum_i (d poly/dx_i)(point) * x_i, from the raw term values."""
    p0, p1, p2 = ([x**k for k in range(poly.total_degree() + 1)]
                  for x in point)
    g0 = g1 = g2 = 0
    for (a, b, c), v in poly.raw.items():
        if a:
            g0 += v * a * p0[a - 1] * p1[b] * p2[c]
        if b:
            g1 += v * b * p0[a] * p1[b - 1] * p2[c]
        if c:
            g2 += v * c * p0[a] * p1[b] * p2[c - 1]
    return MultiPoly.from_raw(poly.domain, dict(zip(_UNITS, (g0, g1, g2))))


def _linear_factors(form):
    """Rational linear factors of a single form, with multiplicity.

    Every line in P2 meets the reference line Z(x0), so candidate base
    points come from the roots of the restriction to it; the factor x0
    itself is peeled off by exact division first.
    """
    domain = form.domain
    x0 = _line_form(domain, [domain.one, domain.zero, domain.zero])
    factors = []
    poly = form.poly
    while True:
        q = poly.try_exact_div(x0.poly)
        if q is None:
            break
        factors.append(x0)
        poly = q
    nonsplit = 0
    if poly.total_degree() > 0:
        rest = Form(poly, poly.total_degree())
        restriction = rest.restrict_to_line(x0)
        if not restriction:
            raise InvariantError("x0 should have been divided out")
        roots, nonsplit = binary_roots(restriction)
        seen = set()
        for s, t in roots:
            point = x0.line_point(s, t)
            key = normalize_point(point)
            if key in seen:
                continue
            seen.add(key)
            result = _pencil_lines([rest], point, domain)
            for line in result.lines:
                q = poly.try_exact_div(line.poly)
                while q is not None:
                    factors.append(line)
                    poly = q
                    q = poly.try_exact_div(line.poly)
            nonsplit = max(nonsplit, result.nonsplit_degree)
    return factors, nonsplit


def normalize_point(point):
    """A hashable key of a projective point: the coordinate values after
    scaling the last nonzero coordinate to 1."""
    pivot = max(i for i in range(3) if point[i])
    inv = point[pivot].inverse()
    return tuple((c * inv).value for c in point)


def common_linear_factor(forms):
    """The shared degree-1 factor of the forms, if one exists.

    A nonzero conic among the forms whose symmetric matrix is nonsingular
    answers None at once: every domain here has characteristic 0 or an
    odd prime, where such a conic is irreducible even over the algebraic
    closure (a product of two lines has a singular matrix), so no line
    divides it.  Otherwise the multivariate GCD is folded; a degree-1 fold
    is returned directly, a higher-degree fold goes through the
    pencil-based linear factor search.
    """
    forms = list(forms)
    if not forms:
        raise ValueError("empty input")
    nonzero = [f for f in forms if f]
    if not nonzero:
        raise ValueError("need at least one nonzero form")
    if any(f.degree == 2 and _nonsingular_conic(f) for f in nonzero):
        return None
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


def _nonsingular_conic(conic):
    """Whether the symmetric matrix [[2a, b, c], [b, 2d, e], [c, e, 2f]] of
    a*x0^2 + b*x0*x1 + c*x0*x2 + d*x1^2 + e*x1*x2 + f*x2^2 is
    nonsingular: its determinant is twice 4adf + bce - ae^2 - b^2f - c^2d,
    which is evaluated on the raw coefficients (mod p over GF(p)), and the
    characteristic is never 2."""
    raw = conic.poly.raw
    a, b, c, d, e, f = (raw.get(m, 0) for m in monomials_of_degree(2))
    value = 4 * a * d * f + b * c * e - a * e * e - b * b * f - c * c * d
    p = conic.domain.modulus
    return bool(value % p if p else value)
