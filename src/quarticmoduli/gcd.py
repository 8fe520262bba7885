"""Exact multivariate GCDs and linear-factor extraction.

The multivariate GCD is a kernel search on the package's Gauss-Jordan
elimination.  Write a = g*a' and b = g*b' with a', b' coprime.  The
equation u*a = v*b has a nonzero solution with deg u <= deg b - k and
deg v <= deg a - k exactly when k <= deg g: then (b', a') is one, and in
any solution a' divides v, so deg a' <= deg a - k.  At k = deg g the
solutions are the multiples of (b', a').  So walking k down from
min(deg a, deg b), the first k with a nonzero kernel vector (u, v) gives
g = a / v, an exact division (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 6).  At k = min(deg a, deg b), where u or v is a constant,
one exact division decides, so the search starts at k - 1.  Two forms
need only the monomials of u and v of exactly those degrees, since the
homogeneous parts of a solution are solutions.  Over QQ the GCD is kept
primitive and integral, and ``gcd_fold`` normalizes it once, at the end.

Lines are found in pencils.  For a point P with pivot k, its last
nonzero coordinate, and i < j the other two indices, the lines through P
are s*l_i + t*l_j with l_m = P[k]*x_m - P[m]*x_k, and substituting
x_m -> P[m]*x0 + [m = i]*x2 - [m = j]*x1 walks the line of parameter
[s:t] = [x1:x2] in x0.  A line divides a form exactly when its [s:t] is a
common root of the coefficients in x0 of the substituted form, binary
forms in x1 and x2 alone, whose GCD is ``gcd_fold``, the package's one
GCD.  The linear factors of a form are x0 and the lines of the pencils
through the points (0 : s : t) where it meets Z(x0); the lines dividing
several forms are the linear factors of their GCD.  A conic among them
spares it unless they share both its lines: a smooth conic has no line,
one of rank 2 is two lines through its singular point, whose pencil
holds the shared lines, and one of rank 1 is a line squared.

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

from .field import GF, QQ, InvariantError, _is_prime, evaluate_raw
from .poly import (
    Form,
    MultiPoly,
    _eliminate,
    _graded,
    _primitive_part,
    coefficient_rows,
    exponent_terms,
    key_exponent,
    keys_of_degree,
    kernel_vector,
    multiples_matrix,
)

_UNITS = X0, X1, X2 = keys_of_degree(1)  # the keys of x0, x1, x2


def multivariate_gcd(a, b):
    """A GCD of two polynomials over QQ or F_p.

    Normalized so the graded-lex leading coefficient is 1; gcd(0, b) is the
    normalized b.  The GCD of two Forms is a Form of its degree, since a
    divisor of a form is a form.  See the module docstring for the top
    degree's division and the kernel search below it.
    """
    return _common_factor(a, b).normalized()


def _common_factor(a, b):
    """A GCD of a and b, not normalized: the other if one is zero, else over
    QQ a primitive integer polynomial; a Form of its degree if both are."""
    if a.domain != b.domain:
        a._coerce(b)  # raises FieldMismatchError
    domain, graded = a.domain, isinstance(a, Form) and isinstance(b, Form)
    da, db = a.total_degree(), b.total_degree()
    low, high = (a, b) if da <= db else (b, a)
    if not low:
        return high
    if high.try_exact_div(low) is not None:  # the kernel at k = min(da, db)
        return _integral(domain, low.raw, graded)
    # two forms need only the monomials of top degree in u and v
    forms = a.is_homogeneous() and b.is_homogeneous()
    neg_b = (-b).raw
    for k in range(min(da, db) - 1, 0, -1):
        # unknowns: u's coefficients (columns m*a), then v's (columns m*(-b))
        shifts = [(m, a.raw) for d in range((db - k) * forms, db - k + 1)
                  for m in keys_of_degree(d)]
        n_u = len(shifts)
        shifts += [(m, neg_b) for d in range((da - k) * forms, da - k + 1)
                   for m in keys_of_degree(d)]
        matrix = multiples_matrix(shifts)
        x = kernel_vector(matrix, _eliminate(matrix, domain.modulus))
        if x is not None:
            g = a.try_exact_div(_integral(domain, {
                m: c for (m, _), c in zip(shifts[n_u:], x[n_u:])}))
            if g is None:
                raise InvariantError("the kernel cofactor does not divide a")
            return _integral(domain, g.raw, graded)
    return _integral(domain, {0: 1}, graded)  # no kernel vector: coprime


def _integral(domain, raw, form=False):
    """A term dict's polynomial, over QQ primitive, a Form if form."""
    raw = raw if domain.modulus else _primitive_part(raw)[2]
    return (_graded(domain, raw, max(raw) >> 96) if form
            else MultiPoly.from_raw(domain, raw))


def gcd_fold(polys):
    """GCD of a sequence of polynomials or forms, normalized: a Form of its
    degree when the inputs are nonzero Forms.

    The running GCD, over QQ a primitive integer polynomial after the first
    GCD, is normalized once, at the end.  The fold stops once it is a
    constant, since nothing can shrink it further, and an input that it
    divides takes one exact division, the test of the top degree.
    """
    total = None
    for p in polys:
        if total is None or not total:
            total = p
        elif total.total_degree() == 0:
            break
        else:
            total = _common_factor(total, p)
    if total is None:
        raise ValueError("empty input")
    return total.normalized()


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
    h = MultiPoly.from_raw(QQ, _primitive_part(h.raw)[2])
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
    roots, terms = set(), [*exponent_terms(h.raw)]
    for r, slope in modular:
        inverse, m = slope.inverse().value, p
        while m <= 2 * low * high:
            m *= p
            r = (r - evaluate_raw(terms, (0, r, 0)) * inverse) % m
        root = _reconstruct(r, m, low)
        if not evaluate_raw(terms, (0, root, 0)):
            roots.add(root)
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator,
                                        r < 0))


def _derivative(f):
    """df/dx1 of a polynomial f in x1."""
    return MultiPoly.from_raw(f.domain, {k - X1: c * key_exponent(k)[1]
                                         for k, c in f.raw.items() if k})


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
            roots.append(-g.raw.get(0, 0) % p)
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
            k + (d - key_exponent(k)[1]) * X2: c for k, c in h.raw.items()}))
    return _at_x2_one(multivariate_gcd(*lifted))


def _at_x2_one(h):
    """h(x0, x1, 1) of a polynomial h free of x0, as a polynomial in x1."""
    return MultiPoly.from_raw(h.domain, {k - key_exponent(k)[2] * X2: c
                                         for k, c in h.raw.items()})


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
    if any(key_exponent(k)[0] for k in form.raw):
        raise ValueError("a binary form has no x0 term")
    if not domain.is_field:
        raise TypeError("roots need a field domain")
    f = _at_x2_one(form)
    distinct = (_roots_gf if domain.modulus else _rational_roots)(f)
    x1, x2 = (MultiPoly.variable(domain, i) for i in (1, 2))
    poly, roots = form, []
    for s, t in [(1, 0)] + [(r, 1) for r in distinct]:
        root = (domain.scalar(s), domain.scalar(t))
        line = x1 * t - x2 * s  # vanishes at [s:t]
        while (q := poly.try_exact_div(line)) is not None:
            roots.append(root)
            poly = q
    return roots, poly.total_degree()


# ---- lines ------------------------------------------------------------




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


def _pencil_indices(point):
    """(i, j, k) for a raw point P: k its pivot, the last nonzero
    coordinate, and i < j the other two indices."""
    k = max(m for m in range(3) if point[m])
    i, j = (m for m in range(3) if m != k)
    return i, j, k


def _pencil_restriction_coefficients(form, point):
    """The restriction of a form to the pencil through the raw point P, as
    binary forms in the pencil parameter [s:t] = [x1:x2].

    The line with parameter [s:t] is s*l_i + t*l_j, with l_m = P[k]*x_m -
    P[m]*x_k (see ``_pencil_indices``); it passes through P and through
    q = t*e_i - s*e_j.  Substituting x_m -> P[m]*x0 + [m = i]*x2 -
    [m = j]*x1 walks that line in x0, and the coefficient of x0^(d-k) is
    the k-th returned slice.  A parameter [s:t] is a common root of all
    the slices exactly when its line divides the form.
    """
    domain = form.domain
    i, j, _ = _pencil_indices(point)
    images = [{X0: c} for c in point]
    images[i][X2] = 1
    images[j][X1] = -1
    restricted = form.substitute(
        [MultiPoly.from_raw(domain, image) for image in images])
    d = form.degree
    slices = [{} for _ in range(d + 1)]
    for k, c in restricted.raw.items():
        e0 = key_exponent(k)[0]
        slices[d - e0][k - e0 * X0] = c
    return [_graded(domain, terms, k) for k, terms in enumerate(slices)]


def _pencil_line(point, s, t, domain):
    """The normalized line s*l_i + t*l_j of the pencil through the raw point
    P: s*P[k]*x_i + t*P[k]*x_j - (s*P[i] + t*P[j])*x_k."""
    i, j, k = _pencil_indices(point)
    s, t = domain.unbox(s), domain.unbox(t)
    coeffs = [0] * 3
    coeffs[i], coeffs[j] = s * point[k], t * point[k]
    coeffs[k] = -(s * point[i] + t * point[j])
    return _graded(domain, domain.canonical(dict(zip(_UNITS, coeffs))),
                   1).normalized()


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
    """All rational lines dividing every input form, with multiplicity.

    With `through` given, only lines in the pencil through that point are
    considered (see ``_pencil_lines``).  Without it, the lines are the
    linear factors of the folded GCD, which divides every input, so each
    of them divides every input too.
    """
    forms = [f for f in forms if f]
    if not forms:
        raise ValueError("need at least one nonzero form")
    if through is not None:
        return _pencil_lines(forms, through, forms[0].domain)
    g = gcd_fold(forms)
    if g.total_degree() == 0:
        return LineSearchResult([], 0)
    return LineSearchResult(*_linear_factors(g))


def _pencil_lines(forms, through, domain):
    """Lines through the point `through` = P that divide every form.

    An all-zero point is refused first.  If a line L through P divides
    f = L*g, then grad f(P) = g(P) * grad L.  So when grad f(P) != 0, the
    tangent line T = sum_i (df/dx_i)(P) * x_i is the only candidate, over
    the algebraic closure too, and it divides f at most once, since
    T^2 | f would give grad f(P) = 0.  The answer is then T alone when
    T(P) = 0 and T divides every form, and no line otherwise.  Only when
    every form is singular at P does the pencil search run: the lines are
    the rational roots of the GCD of all the forms' pencil slices.
    """
    point = [domain.unbox(c) for c in through]
    if not any(point):
        raise ValueError("projective point must not be all zero")
    for f in forms:
        tangent = _tangent_line(f, point)
        if tangent:
            if any(g.try_exact_div(tangent) is None for g in forms) \
                    or tangent.evaluate(point):
                return LineSearchResult([], 0)
            return LineSearchResult([tangent.normalized()], 0)
    slices = [c for f in forms
              for c in _pencil_restriction_coefficients(f, point) if c]
    if not slices:
        # every pencil line divides every form; cannot happen for nonzero
        # quartics, so report it as a degenerate input
        raise ValueError("all pencil restrictions vanish identically")
    g = gcd_fold(slices)
    if g.total_degree() == 0:
        return LineSearchResult([], 0)
    roots, nonsplit = binary_roots(g)
    return LineSearchResult(
        [_pencil_line(point, s, t, domain) for s, t in roots], nonsplit)


def _tangent_line(poly, point):
    """The linear form sum_i (d poly/dx_i)(point) * x_i, from raw values."""
    p0, p1, p2 = ([x**k for k in range(poly.total_degree() + 1)]
                  for x in point)
    g0 = g1 = g2 = 0
    for k, v in poly.raw.items():
        a, b, c = k >> 64 & 0xFFFFFFFF, k >> 32 & 0xFFFFFFFF, k & 0xFFFFFFFF
        if a:
            g0 += v * a * p0[a - 1] * p1[b] * p2[c]
        if b:
            g1 += v * b * p0[a] * p1[b - 1] * p2[c]
        if c:
            g2 += v * c * p0[a] * p1[b] * p2[c - 1]
    return _graded(poly.domain, poly.domain.canonical(
        dict(zip(_UNITS, (g0, g1, g2)))), 1)


def _linear_factors(form):
    """Rational linear factors of a single form, with multiplicity, and the
    nonsplit degree; a line is its own normalized factor.

    Every line in P2 meets the reference line Z(x0), so candidate base
    points (0 : s : t) come from the roots [s:t] of f(0, x1, x2), read off
    the terms free of x0; the factor x0 itself is peeled off by exact
    division first.
    """
    if form.degree == 1:
        return [form.normalized()], 0
    domain = form.domain
    x0 = Form.variable(domain, 0)
    factors = []
    poly = form
    while (q := poly.try_exact_div(x0)) is not None:
        factors.append(x0)
        poly = q
    nonsplit = 0
    if poly.total_degree() > 0:
        rest = poly
        restriction = _graded(domain, {k: c for k, c in rest.raw.items()
                                       if not key_exponent(k)[0]}, rest.degree)
        if not restriction:
            raise InvariantError("x0 should have been divided out")
        roots, nonsplit = binary_roots(restriction)
        seen = set()
        for s, t in roots:
            point = (domain.zero, s, t)
            key = normalize_point(point)
            if key in seen:
                continue
            seen.add(key)
            result = _pencil_lines([rest], point, domain)
            for line in result.lines:
                while (q := poly.try_exact_div(line)) is not None:
                    factors.append(line)
                    poly = q
            nonsplit = max(nonsplit, result.nonsplit_degree)
    return factors, nonsplit


def normalize_point(point):
    """A hashable key of a projective point: the coordinate values after
    scaling the last nonzero coordinate to 1."""
    pivot = max(i for i in range(3) if point[i])
    inv = point[pivot].inverse()
    return tuple((c * inv).value for c in point)


def common_linear_factor(forms):
    """The first shared degree-1 factor of the forms, normalized, or None.

    A shared line divides every conic, so a smooth conic among the forms,
    of rank 3, gives None, and otherwise the first nonzero conic decides
    by its rank (``_conic_rank``).  At rank 2 the answer is the line that
    ``_pencil_lines`` finds through the conic's singular point, and for
    c*L^2, of rank 1, it is L if L divides every form.  When that pencil
    holds both lines of the conic, or no form is a conic, the answer is
    the first line of ``lines_dividing_all``.
    """
    forms = list(forms)
    if not forms:
        raise ValueError("empty input")
    ranks = (_conic_rank(f) for f in forms if f and f.degree == 2)
    first = next(ranks, None)  # the first conic's (rank, witness)
    if first and (first[0] == 3 or any(r == 3 for r, _ in ranks)):
        return None  # a smooth conic
    if first:
        (rank, witness), domain = first, forms[0].domain
        if rank == 1:
            line = _graded(
                domain, domain.canonical(dict(zip(_UNITS, witness))), 1)
            return None if any(f.try_exact_div(line) is None for f in forms) \
                else line.normalized()
        lines = _pencil_lines(forms, witness, domain).lines
        if len(lines) < 2:
            return lines[0] if lines else None
    lines = lines_dividing_all(forms).lines
    return lines[0] if lines else None


def _conic_rank(conic):
    """(rank, witness) of M = [[2a, b, c], [b, 2d, e], [c, e, 2f]] for the
    conic a*x0^2 + b*x0*x1 + c*x0*x2 + d*x1^2 + e*x1*x2 + f*x2^2 != 0, on
    raw values (mod p over GF(p), p odd): None at rank 3; at rank 2 the
    singular point, a nonzero column of M's adjugate, whose column k is
    the cross product of the other two rows; at rank 1 a nonzero row."""
    p = conic.domain.modulus
    a, b, c, d, e, f = (conic.raw.get(m, 0) for m in keys_of_degree(2))
    c00, c01, c02 = 4 * d * f - e * e, c * e - 2 * b * f, b * e - 2 * c * d
    det = 2 * a * c00 + b * c01 + c * c02
    if det % p if p else det:
        return 3, None
    c12 = b * c - 2 * a * e  # the adjugate is symmetric, as M is
    for column in ((c00, c01, c02), (c01, 4 * a * f - c * c, c12),
                   (c02, c12, 4 * a * d - b * b)):
        column = tuple(x % p for x in column) if p else column
        if any(column):
            return 2, column
    return 1, next(r for r in ((2 * a, b, c), (b, 2 * d, e), (c, e, 2 * f))
                   if any(r))
