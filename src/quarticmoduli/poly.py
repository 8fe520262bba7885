"""Sparse exact polynomials in x0, x1, x2 and their homogeneous forms.

Terms are stored as ``raw``, a dict from exponent triples to nonzero raw
values in canonical form: ints in [0, p) over GF(p); over QQ ints when
integral and Fractions otherwise; ParamScalars over a parameter ring.
Every operation reads and writes raw values, made canonical once per
output by ``Domain.canonical``; the domains are matched once per
polynomial, not per term.  Scalars are boxed only at the API edge: the
``terms`` view, ``coefficient`` and the results of the linear algebra.
The canonical term order, which the text serialization follows, is
graded lex, x0 > x1 > x2.

``dot`` is the one multiply-accumulate kernel: a sum of signed products,
such as a product, a cofactor sum or a matrix product entry, is
accumulated in one dict of raw values and made canonical once.
``MultiPoly.divmod`` keys its remainder terms by (degree, e0, e1, e2),
whose tuple order is graded lex, so ``max`` finds the leading term by
comparing tuples.  ``evaluate`` builds no polynomial: it runs
``field.evaluate_raw``, the one evaluation loop, on the raw terms and the
unboxed point, and refuses a point that is not a triple.

A binary form, such as the restriction of a form to a line, is a
``Form`` in x1 and x2 alone, with the package's one arithmetic, GCD and
division; ``BinaryForm`` adds only printing in s, t and a coefficient
list.

This module is also the single home of exact linear algebra over a field,
all of it on raw values: one Gauss-Jordan elimination, ``_eliminate``,
with ``kernel_vector``, ``solve_linear`` (a particular solution) and
``linear_rank`` on top, reading forms through ``coefficient_rows``,
serves every rank, kernel, solve and GCD in the package.  Its callers box
a scalar only where a point or a solution leaves in a report.  It is one
loop for both fields, which differ only in how the rows are kept small:
over GF(p) mod p, and over QQ fraction-free on integer rows, as in
Bareiss's method (Math. Comp. 22, 1968), though by dividing out each
row's content rather than the previous pivot, and by the pivots only at
the end.
"""

from fractions import Fraction
from math import gcd, lcm

from .field import QQ, _serialize_terms, evaluate_raw

VARIABLES = ("x0", "x1", "x2")
NVARS = 3


def _grlex_key(exp):
    return (sum(exp), exp)


class MultiPoly:
    """Sparse polynomial in x0, x1, x2 over a coefficient domain."""

    __slots__ = ("domain", "raw")

    def __init__(self, domain, terms):
        """The polynomial of a dict exponent -> scalar, int or Fraction."""
        unbox = domain.unbox
        self.domain = domain
        self.raw = domain.canonical({e: unbox(c) for e, c in terms.items()})

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, domain):
        return cls(domain, {})

    @classmethod
    def constant(cls, domain, value):
        return cls.monomial(domain, (0, 0, 0), value)

    @classmethod
    def variable(cls, domain, i):
        exp = tuple(1 if j == i else 0 for j in range(NVARS))
        return cls.from_raw(domain, {exp: domain.one.value})

    @classmethod
    def monomial(cls, domain, exp, coeff=1):
        return cls.from_raw(domain, {tuple(exp): domain.unbox(coeff)})

    @classmethod
    def from_raw(cls, domain, raw_terms):
        """The polynomial of a dict exponent -> raw value."""
        poly = object.__new__(cls)
        poly.domain, poly.raw = domain, domain.canonical(raw_terms)
        return poly

    @property
    def terms(self):
        """Exponent -> nonzero boxed scalar, built afresh on each read."""
        box = self.domain.box
        return {e: box(c) for e, c in self.raw.items()}

    # ---- ring structure -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.domain is not self.domain:
                self.domain.check_same(other.domain)
            return other
        return MultiPoly.constant(self.domain, other)

    def __add__(self, other):
        other = self._coerce(other)
        raw = dict(self.raw)
        get = raw.get
        for e, c in other.raw.items():
            raw[e] = c + get(e, 0)
        return MultiPoly.from_raw(self.domain, raw)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly.from_raw(self.domain,
                                  {e: -c for e, c in self.raw.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            # scalar multiple
            v = self.domain.unbox(other)
            return MultiPoly.from_raw(
                self.domain, {e: c * v for e, c in self.raw.items()})
        return dot([(self, other)], self.domain)

    __rmul__ = __mul__

    def substitute(self, images):
        """The composition self(images[0], images[1], images[2]).

        Images are polynomials over the same domain (or scalars).  The
        powers of each image are computed once and shared by all terms.
        """
        domain = self.domain
        images = [self._coerce(g) for g in images]
        powers = [[MultiPoly.constant(domain, 1)] for _ in images]
        total = MultiPoly.zero(domain)
        for e, c in self.raw.items():
            term = MultiPoly.from_raw(domain, {(0, 0, 0): c})
            for image, power, k in zip(images, powers, e):
                while len(power) <= k:
                    power.append(power[-1] * image)
                if k:
                    term = term * power[k]
            total = total + term
        return total

    def __pow__(self, n, modulus=None):
        """self**n by square-and-multiply; pow(self, n, modulus) is its
        remainder by modulus, with both factors reduced at each step."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.domain, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
            if modulus is not None:
                result = result.divmod(modulus)[1]
                base = base.divmod(modulus)[1]
        return result

    def __bool__(self):
        return bool(self.raw)

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.domain, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.domain == other.domain and self.raw == other.raw

    def __hash__(self):
        return hash((self.domain, frozenset(self.raw.items())))

    # ---- structure queries --------------------------------------------

    def total_degree(self):
        """Largest total degree of a term; -1 for the zero polynomial."""
        if not self.raw:
            return -1
        return max(sum(e) for e in self.raw)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.raw}
        return len(degrees) <= 1

    def leading_exponent(self):
        if not self.raw:
            raise ValueError("zero polynomial has no leading term")
        return max(self.raw, key=_grlex_key)

    def coefficient(self, exp):
        """The boxed coefficient of the monomial exp, zero included."""
        return self.domain.box(self.raw.get(exp, 0))

    def leading_coefficient(self):
        return self.coefficient(self.leading_exponent())

    def normalized(self):
        """Scale so the graded-lex leading coefficient is 1 (field domains)."""
        if not self.raw:
            return self
        inv = self.leading_coefficient().inverse()
        return self * inv

    def evaluate(self, point):
        """Value at a triple of scalars, ints or Fractions."""
        return self.domain.box(
            evaluate_raw(self.raw, _raw_point(self.domain, point)))

    # ---- exact division ------------------------------------------------

    def exact_div(self, divisor):
        q = self.try_exact_div(divisor)
        if q is None:
            raise ValueError("not exactly divisible")
        return q

    def try_exact_div(self, divisor):
        """Quotient self/divisor if the division is exact, else None."""
        division = self.divmod(divisor, exact=True)
        return division[0] if division else None

    def divmod(self, divisor, exact=False):
        """Quotient and remainder of self by divisor, by the graded-lex
        division loop: a leading term of the remainder that the divisor's
        leading term does not divide moves to the final remainder, or with
        exact ends the division at once with None."""
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.domain.is_field:
            raise TypeError("division needs a field domain")
        p = self.domain.modulus
        lead_d = divisor.leading_exponent()
        lead = divisor.raw[lead_d]
        if p:  # over QQ pow(int, -1) would give a float
            inv = pow(lead, -1, p)
        else:
            inv = lead if lead in (1, -1) else Fraction(1, lead)
        # terms keyed by (degree, e0, e1, e2), whose tuple order is grlex
        d0, d1, d2 = lead_d
        rest = [((e0 + e1 + e2, e0, e1, e2), -c)
                for (e0, e1, e2), c in divisor.raw.items()
                if (e0, e1, e2) != lead_d]
        # raw values: the remainders' unreduced, the quotient's mod p
        remainder = {(e0 + e1 + e2, e0, e1, e2): c
                     for (e0, e1, e2), c in self.raw.items()}
        get = remainder.get
        quotient, kept = {}, {}
        while remainder:
            lead_r = max(remainder)
            v = remainder.pop(lead_r)
            c = v * inv
            if p:
                c %= p
            if not c:
                continue
            _, r0, r1, r2 = lead_r
            q0, q1, q2 = r0 - d0, r1 - d1, r2 - d2
            if q0 < 0 or q1 < 0 or q2 < 0:
                if exact:
                    return None
                kept[r0, r1, r2] = v
                continue
            quotient[q0, q1, q2] = c
            q = q0 + q1 + q2
            for (k, k0, k1, k2), w in rest:
                e = (k + q, k0 + q0, k1 + q1, k2 + q2)
                remainder[e] = c * w + get(e, 0)
        return (MultiPoly.from_raw(self.domain, quotient),
                MultiPoly.from_raw(self.domain, kept))

    # ---- serialization -------------------------------------------------

    def serialize(self, variables=VARIABLES):
        """Canonical text: graded-lex descending, explicit '*' and '^'."""
        terms = self.terms
        return _serialize_terms(
            (terms[e], zip(variables, e))
            for e in sorted(terms, key=_grlex_key, reverse=True)
        )

    def __repr__(self):
        return self.serialize()


def _raw_point(domain, point):
    """The raw values of the coordinates of a point in x0, x1, x2."""
    values = [domain.unbox(v) for v in point]
    if len(values) != NVARS:
        raise ValueError(f"a point needs {NVARS} coordinates, "
                         f"got {len(values)}")
    return values


def dot(pairs, domain, negated=()):
    """The sum of the products a * b of the pairs (a, b) of polynomials
    over domain, less those at the indices in negated: the package's one
    multiply-accumulate kernel.  Every product is summed into one dict of
    raw values, made canonical once."""
    raw = {}
    get = raw.get
    for k, (a, b) in enumerate(pairs):
        if a.domain is not domain:
            domain.check_same(a.domain)
        if b.domain is not domain:
            domain.check_same(b.domain)
        left = a.raw.items()
        if k in negated:
            left = [(e, -v) for e, v in left]
        right = list(b.raw.items())
        for (a0, a1, a2), v in left:
            for (b0, b1, b2), w in right:
                e = (a0 + b0, a1 + b1, a2 + b2)
                raw[e] = v * w + get(e, 0)
    return MultiPoly.from_raw(domain, raw)


class Form:
    """A homogeneous polynomial with an explicit degree.

    The zero polynomial is homogeneous of every degree, so a zero Form may
    carry any nonnegative degree.
    """

    __slots__ = ("poly", "degree")

    def __init__(self, poly, degree):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if any(sum(e) != degree for e in poly.raw):
            raise ValueError(
                f"polynomial {poly!r} is not homogeneous of degree {degree}"
            )
        self.poly = poly
        self.degree = degree

    @classmethod
    def zero(cls, domain, degree):
        return cls(MultiPoly.zero(domain), degree)

    @property
    def domain(self):
        return self.poly.domain

    def __bool__(self):
        return bool(self.poly)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.poly == other.poly and (
            not self.poly or self.degree == other.degree
        )

    def __hash__(self):
        return hash(self.poly)

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.poly and other.poly and self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        degree = self.degree if self.poly else other.degree
        return Form(self.poly + other.poly, degree)

    def __neg__(self):
        return Form(-self.poly, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Form):
            return Form(self.poly * other.poly, self.degree + other.degree)
        return Form(self.poly * other, self.degree)

    __rmul__ = __mul__

    def normalized(self):
        return Form(self.poly.normalized(), self.degree)

    def evaluate(self, point):
        """Value at an affine representative of a projective point.

        Well defined up to scaling by a nonzero scalar to the degree-th
        power, so callers should only use the zero/nonzero status.
        """
        domain = self.domain
        values = _raw_point(domain, point)
        if not any(values):
            raise ValueError("projective point must not be all zero")
        return domain.box(evaluate_raw(self.poly.raw, values))

    def serialize(self):
        return self.poly.serialize()

    def __repr__(self):
        return f"{self.serialize()} (deg {self.degree})"

    def _line_images(self):
        """The images of x0, x1, x2 under the standard parametrization of
        Z(self), a nonzero degree-1 form: linear forms in s = x1, t = x2.

        The line is solved for its pivot variable (the largest-index
        variable with a nonzero coefficient); the two remaining variables
        become the parameters (s, t) in increasing index order.
        """
        if self.degree != 1 or not self:
            raise ValueError("need a nonzero degree-1 form")
        domain = self.domain
        coeffs = coefficient_rows([self], 1)[0]
        pivot = max(i for i in range(3) if coeffs[i])
        params = [i for i in range(3) if i != pivot]
        minus_inv = -domain.box(coeffs[pivot]).inverse().value
        images = [None] * 3
        images[params[0]] = MultiPoly.variable(domain, 1)
        images[params[1]] = MultiPoly.variable(domain, 2)
        images[pivot] = MultiPoly.from_raw(domain, {
            (0, 1, 0): coeffs[params[0]] * minus_inv,
            (0, 0, 1): coeffs[params[1]] * minus_inv})
        return images

    def restrict_to_line(self, line):
        """Pull back along the standard parametrization of Z(line)."""
        if not isinstance(line, Form):
            raise ValueError("line must be a degree-1 Form")
        return BinaryForm(self.poly.substitute(line._line_images()),
                          self.degree)

    def line_point(self, s, t):
        """The P2 point of Z(self) at parameter [s:t] (degree-1 forms only),
        in the parametrization of restrict_to_line."""
        point = (0, s, t)
        return tuple(image.evaluate(point) for image in self._line_images())


class BinaryForm(Form):
    """A form in x1 and x2 alone, read as a binary form in s = x1, t = x2.

    It is a Form in every respect but two: it prints x1, x2 as s, t, and
    coefficients[i] is the boxed coefficient of s^(degree-i) * t^i.
    """

    __slots__ = ()

    @property
    def coefficients(self):
        d = self.degree
        return [self.poly.coefficient((0, d - i, i)) for i in range(d + 1)]

    def serialize(self):
        return self.poly.serialize(("x0", "s", "t"))


# ---- parsing ----------------------------------------------------------


class ParseError(ValueError):
    """Raised on malformed polynomial text."""


class PowerDegreeError(ParseError):
    """Raised, before expanding it, on a power above the allowed degree."""


# the largest power of a rational constant, in bits, that the parser computes
MAX_CONSTANT_POWER_BITS = 10_000


class _Parser:
    """Recursive descent over: rationals, x0/x1/x2, + - * ^, parentheses.

    With max_degree given, a power of a nonconstant base of higher degree
    raises PowerDegreeError before it is expanded.
    """

    def __init__(self, text, domain, max_degree=None):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.domain = domain
        self.max_degree = max_degree

    @staticmethod
    def _tokenize(text):
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*^()":
                tokens.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                    j += 1
                tokens.append(text[i:j])
                i = j
            elif ch == "x":
                if i + 1 < len(text) and text[i + 1] in "012":
                    tokens.append(text[i : i + 2])
                    i += 2
                else:
                    raise ParseError(f"bad variable at position {i}")
            else:
                raise ParseError(f"unexpected character {ch!r}")
        return tokens

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

    def expr(self):
        sign = 1
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
        return poly

    def term(self):
        poly = self.factor()
        while self.peek() == "*":
            self.next()
            poly = poly * self.factor()
        return poly

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.next()
            if tok is None or not tok.isdigit():
                raise ParseError("expected integer exponent after '^'")
            n = int(tok)
            degree = base.total_degree()
            if degree <= 0:
                return MultiPoly.constant(self.domain, self._constant_power(
                    base.coefficient((0, 0, 0)), n))
            if self.max_degree is not None and n * degree > self.max_degree:
                raise PowerDegreeError(f"a power of degree {n * degree}")
            base = base ** n
        return base

    def _constant_power(self, c, n):
        """c**n by binary powering; over QQ a value of more than
        MAX_CONSTANT_POWER_BITS bits is refused before it is computed."""
        if self.domain == QQ:
            size = max(abs(c.value.numerator), c.value.denominator)
            if n * (size.bit_length() - 1) > MAX_CONSTANT_POWER_BITS:
                raise ParseError(f"the power {c.as_text()}^{n} exceeds "
                                 f"{MAX_CONSTANT_POWER_BITS} bits")
        return c ** n

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
                raise ParseError(f"bad number {tok!r}: {exc}") from exc
        raise ParseError(f"unexpected token {tok!r}")


def parse_poly(text, domain=QQ):
    return _Parser(text, domain).parse()


def parse_form(text, expected_degree=None, domain=QQ):
    """Parse a homogeneous polynomial into a Form.

    The zero polynomial is accepted at any expected degree.  With
    expected_degree given, a power of a nonconstant base above it raises
    PowerDegreeError before it is expanded, so x0^3 - x0^3 + x1^2 is
    refused at degree 2 although its value is x1^2.
    """
    try:
        poly = _Parser(text, domain, expected_degree).parse()
    except PowerDegreeError as exc:
        raise PowerDegreeError(f"degree mismatch: expected {expected_degree}, "
                               f"got {exc}") from None
    return _homogeneous_form(poly, text, expected_degree)


def parse_entry(text, max_degree, domain=QQ):
    """parse_form(text) for text whose degree may not exceed max_degree.

    A power of a nonconstant base above max_degree raises PowerDegreeError
    before it is expanded, so a huge exponent fails at once.
    """
    return _homogeneous_form(_Parser(text, domain, max_degree).parse(), text,
                             None)


def _homogeneous_form(poly, text, expected_degree):
    if not poly:
        return Form(poly, expected_degree if expected_degree is not None else 0)
    if not poly.is_homogeneous():
        raise ParseError(f"inhomogeneous polynomial: {text!r}")
    degree = poly.total_degree()
    if expected_degree is not None and degree != expected_degree:
        raise ParseError(
            f"degree mismatch: expected {expected_degree}, got {degree}"
        )
    return Form(poly, degree)


def monomials_of_degree(d):
    """Exponent triples of total degree d, in descending graded-lex order."""
    out = []
    for e0 in range(d, -1, -1):
        for e1 in range(d - e0, -1, -1):
            out.append((e0, e1, d - e0 - e1))
    return out


def coefficient_rows(forms, degree):
    """Raw coefficient vectors of the given forms over the degree-d
    monomials, in the order of ``monomials_of_degree``.

    For degree 1 the vector of a linear form is its (x0, x1, x2)
    coefficients.
    """
    monos = monomials_of_degree(degree)
    rows = []
    for f in forms:
        if f.poly and f.degree != degree:
            raise ValueError(f"form of degree {f.degree}, expected {degree}")
        rows.append([f.poly.raw.get(m, 0) for m in monos])
    return rows


def _eliminate(rows, p):
    """Gauss-Jordan elimination in place on raw values mod p (over QQ when
    p is None), taking as pivot the first nonzero entry at or below the
    current row, column by column; returns the pivot columns.  The rows
    must hold canonical raw values, and the reduced rows are canonical.
    One loop serves both fields: a row is cleared by cross-multiplying it
    with the pivot row.  Over GF(p) the pivot row is first made monic and
    each cleared row reduced mod p.  Over QQ the rows are made primitive
    integer rows once and after each clearing, and the pivot rows are
    divided by their pivots at the end: the reduced row echelon form is
    unique, so it is the same."""
    if not p:
        for i, row in enumerate(rows):
            den = lcm(*[v.denominator for v in row])
            rows[i] = _primitive([v.numerator * (den // v.denominator)
                                  for v in row])
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if p:
            inv = pow(rows[r][col], -1, p)
            rows[r] = [v * inv % p for v in rows[r]]
        top = rows[r]
        a = top[col]
        nonzero = [(j, v) for j, v in enumerate(top) if v]
        for i, row in enumerate(rows):
            b = row[col]
            if i != r and b:
                if a != 1:  # (a * row - b * top) / gcd(a, b)
                    g = gcd(a, b)
                    b //= g
                    if a != g:
                        row = [a // g * v for v in row]
                for j, v in nonzero:
                    row[j] -= b * v
                rows[i] = [v % p for v in row] if p else _primitive(row)
        pivots.append(col)
    if not p:
        for i, col in enumerate(pivots):
            d = rows[i][col]
            rows[i] = [v // d if v % d == 0 else Fraction(v, d)
                       for v in rows[i]]
    return pivots


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    content = gcd(*row)
    return [v // content for v in row] if content > 1 else row


def kernel_vector(rows, pivots):
    """A kernel vector of a matrix from its reduced rows and pivot columns,
    as _eliminate gives them: the first free column set to 1 and each
    pivot column to minus that column's entry in its row, or None when
    every column is a pivot.  The entries are raw values, not reduced mod
    p, with the ints 0 and 1 in the free columns."""
    ncols = len(rows[0]) if rows else 0
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    x = [0] * ncols
    x[free] = 1
    for row, col in zip(rows, pivots):
        x[col] = -row[free]
    return x


def solve_linear(matrix, rhs, p):
    """A solution x of matrix * x = rhs, or None when there is none: raw
    values mod p, or over QQ when p is None, canonical in and out.

    Free variables are set to zero.  A pivot in the augmented column of the
    reduced system means the system is inconsistent.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _eliminate(rows, p)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for row, col in zip(rows, pivots):
        x[col] = row[ncols]
    return x


def linear_rank(forms, common_degree):
    """Rank of the coefficient matrix of forms of one common degree."""
    forms = list(forms)
    if not forms:
        return 0
    return len(_eliminate(coefficient_rows(forms, common_degree),
                          forms[0].domain.modulus))
