"""Sparse exact polynomials in x0, x1, x2 and their homogeneous forms.

Terms are stored as ``raw``, a dict from monomial keys to nonzero raw
values in canonical form: ints in [0, p) over GF(p); over QQ ints when
integral and Fractions otherwise; ParamScalars over a parameter ring.
Every operation reads and writes raw values, made canonical once per
output by ``Domain.canonical``; the domains are matched once per
polynomial, not per term.  Scalars are boxed only at the API edge: the
``terms`` view, ``coefficient`` and the results of the linear algebra.
The key of x0^e0*x1^e1*x2^e2 is the int d<<96 | e0<<64 | e1<<32 | e2, d =
e0 + e1 + e2 (Monagan and Pearce, J. Symb. Comp. 46, 2011), so int order
is graded lex, x0 > x1 > x2, the canonical term order, and keys add as
exponents do.  Every exponent and degree stays below 2^31: a constructor,
parse, power or product that would reach it is refused, so no 32-bit
field overflows into the next.  The public surface keeps exponent triples.

``dot_raw`` is the one product loop: it sums the products of pairs of
term dicts in one dict of raw values.  ``dot``, the checked kernel over it,
takes a sum of products of polynomials, such as a cofactor sum, matches
the domains and makes the sum canonical once; ``matrices``, the parser
and ``MultiPoly._times``, the term dict of a product, run ``dot_raw`` on
term dicts themselves.
The parser reads text into term dicts: a variable is one key, a literal
its raw value, ``*`` one ``dot_raw``, and each sum is added into one dict
and made canonical, so no term of a factor is zero and its largest key
gives its degree; a power of one term is its key times n, and any other
power repeated ``dot_raw``.  One polynomial is built, at the end.
``MultiPoly.divmod`` keys its remainder by key: kd divides kr when kr - kd
is nonnegative with no guard bit, the top bit of an exponent field that a
borrow sets; over QQ it divides primitive integer parts (Gauss's lemma).
``multiples_matrix`` lays out the monomial multiples m*f of term dicts as
the columns of a linear system by key shift, with no product: the GCD's
kernel search and the row-space test in ``strata`` read their columns
from it.
``evaluate`` builds no polynomial: it runs ``field.evaluate_raw``, the
one evaluation loop, on the raw terms and the unboxed point, and refuses
a point that is not a triple.

A ``Form`` is a ``MultiPoly`` with a degree, so every polynomial
algorithm takes a form as it is; ``form.poly`` is the form itself.  Its
equality is MultiPoly's: a Form equals the MultiPoly with the same terms,
and a zero Form equals 0.  A binary form, such as the restriction of a
form to a line, is a ``Form`` in x1 and x2 alone, with the package's one
arithmetic, GCD and division; ``BinaryForm`` adds only printing in s, t
and a coefficient list.

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
from functools import lru_cache
from math import gcd, lcm

from .field import (MAX_DIGITS, QQ, _serialize_terms, evaluate_raw,
                    monomial_text)

VARIABLES = ("x0", "x1", "x2")
NVARS = 3

DEGREE_LIMIT = 1 << 31  # every exponent and degree stays below it
_GUARDS = 1 << 95 | 1 << 63 | 1 << 31  # the top bit of each exponent field


def monomial_key(exp):
    """The key of an exponent triple in [0, 2^31) of degree below 2^31."""
    e0, e1, e2 = exp
    if min(e0, e1, e2) < 0 or (d := e0 + e1 + e2) >= DEGREE_LIMIT:
        raise ValueError(f"exponent {tuple(exp)} out of range [0, 2^31)")
    return d << 96 | e0 << 64 | e1 << 32 | e2


def key_exponent(key):
    """The exponent triple of a key."""
    return (key >> 64 & 0xFFFFFFFF, key >> 32 & 0xFFFFFFFF, key & 0xFFFFFFFF)


def exponent_terms(raw):
    """The (exponent triple, raw value) pairs of a term dict."""
    return ((key_exponent(k), c) for k, c in raw.items())


class MultiPoly:
    """Sparse polynomial in x0, x1, x2 over a coefficient domain."""

    __slots__ = ("domain", "raw")

    def __init__(self, domain, terms):
        """The polynomial of a dict exponent -> scalar, int or Fraction."""
        self.domain = domain
        self.raw = domain.canonical({monomial_key(e): domain.unbox(c)
                                     for e, c in terms.items()})

    # ---- constructors -------------------------------------------------
    # each builds a MultiPoly, even on Form, whose objects need a degree

    @classmethod
    def zero(cls, domain):
        return MultiPoly(domain, {})

    @classmethod
    def constant(cls, domain, value):
        return cls.monomial(domain, (0, 0, 0), value)

    @classmethod
    def variable(cls, domain, i):
        return cls.from_raw(domain, {keys_of_degree(1)[i]: domain.one.value})

    @classmethod
    def monomial(cls, domain, exp, coeff=1):
        return cls.from_raw(domain, {monomial_key(exp): domain.unbox(coeff)})

    @classmethod
    def from_raw(cls, domain, raw_terms):
        """The polynomial of a dict key -> raw value."""
        poly = object.__new__(MultiPoly)
        poly.domain, poly.raw = domain, domain.canonical(raw_terms)
        return poly

    @property
    def terms(self):
        """Exponent -> nonzero boxed scalar, built afresh on each read."""
        box = self.domain.box
        return {e: box(c) for e, c in exponent_terms(self.raw)}

    # ---- ring structure -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.domain is not self.domain:
                self.domain.check_same(other.domain)
            return other
        return MultiPoly.constant(self.domain, other)

    def __add__(self, other):
        return MultiPoly.from_raw(self.domain, self._plus(other))

    def _plus(self, other):
        """The term dict of self + other, not yet canonical."""
        raw = dict(self.raw)
        get = raw.get
        for e, c in self._coerce(other).raw.items():
            raw[e] = c + get(e, 0)
        return raw

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly.from_raw(self.domain,
                                  {e: -c for e, c in self.raw.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return MultiPoly.from_raw(self.domain, self._times(other))

    def _times(self, other):
        """The term dict of self * other, not yet canonical."""
        if not isinstance(other, MultiPoly):  # a scalar multiple
            v = self.domain.unbox(other)
            return {e: c * v for e, c in self.raw.items()}
        if other.domain is not self.domain:
            self.domain.check_same(other.domain)
        return dot_raw([(self.raw, other.raw)])

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
        for e, c in exponent_terms(self.raw):
            term = MultiPoly.from_raw(domain, {0: c})
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
        """A constant hashes as its raw value, as the int it equals does, and
        zero as 0.  Over GF(p) it also equals the ints outside [0, p) of its
        class, such as 104 at p = 101, which no hash can match (so too for
        FieldScalar)."""
        raw = self.raw
        if not raw or raw.keys() == {0}:
            return hash(raw.get(0, 0))
        return hash((self.domain, frozenset(raw.items())))

    # ---- structure queries --------------------------------------------

    def total_degree(self):
        """Largest total degree of a term; -1 for the zero polynomial."""
        return max(self.raw) >> 96 if self.raw else -1

    def is_homogeneous(self):
        return not self.raw or min(self.raw) >> 96 == max(self.raw) >> 96

    def leading_exponent(self):
        if not self.raw:
            raise ValueError("zero polynomial has no leading term")
        return key_exponent(max(self.raw))

    def coefficient(self, exp):
        """The boxed coefficient of the monomial exp, zero included."""
        return self.domain.box(self.raw.get(monomial_key(exp), 0))

    def leading_coefficient(self):
        return self.coefficient(self.leading_exponent())

    def normalized(self):
        """Scale so the graded-lex leading coefficient is 1 (field domains),
        in one pass over the raw values; a Form stays a Form.  Over QQ a
        value is c // lead where that is exact, and one Fraction otherwise."""
        raw, domain = self.raw, self.domain
        if not raw:
            return self
        lead = raw[max(raw)]
        inv = None if domain == QQ else domain.box(lead).inverse().value
        raw = {k: c * inv if inv else _quotient(c, lead)
               for k, c in raw.items()}
        return (_graded(domain, domain.canonical(raw), self.degree)
                if isinstance(self, Form) else MultiPoly.from_raw(domain, raw))

    def evaluate(self, point):
        """Value at a triple of scalars, ints or Fractions."""
        point = _raw_point(self.domain, point)
        return self.domain.box(evaluate_raw(exponent_terms(self.raw), point))

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
        exact ends the division at once with None.  Over QQ it runs on the
        primitive parts (Gauss's lemma): a step that the leading coefficient
        does not divide goes on with a Fraction, or with exact gives None."""
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.domain.is_field:
            raise TypeError("division needs a field domain")
        p = self.domain.modulus
        raw, terms = self.raw, divisor.raw
        if not p:
            num, den, raw = _primitive_part(raw)
            num_d, den_d, terms = _primitive_part(terms)
        lead_d, lead = max(terms.items())  # keys are distinct
        inv = pow(lead, -1, p) if p else None
        rest = [(k, -c) for k, c in terms.items() if k != lead_d]
        # raw values: the remainders' unreduced, the quotient's mod p
        remainder = dict(raw)
        get = remainder.get
        quotient, kept = {}, {}
        while remainder:
            lead_r = max(remainder)
            v = remainder.pop(lead_r)
            c, r = (v * inv % p, 0) if p else divmod(v, lead)
            if not (c or r):
                continue
            q = lead_r - lead_d
            # lead_d does not divide lead_r, or over QQ lead does not divide v
            if q < 0 or q & _GUARDS or r and exact:
                if exact:
                    return None
                kept[lead_r] = v
                continue
            if r:  # over QQ the step goes on with a Fraction
                c = Fraction(v, lead)
            quotient[q] = c
            for k, w in rest:
                e = k + q
                remainder[e] = c * w + get(e, 0)
        if not p:
            scale = _quotient(num * den_d, den * num_d)
            quotient = {k: c * scale for k, c in quotient.items()}
            scale = _quotient(num, den)
            kept = {k: c * scale for k, c in kept.items()}
        return (MultiPoly.from_raw(self.domain, quotient),
                MultiPoly.from_raw(self.domain, kept))

    # ---- serialization -------------------------------------------------

    def serialize(self, variables=VARIABLES):
        """Canonical text: graded-lex descending, explicit '*' and '^'."""
        raw = self.raw
        return _serialize_terms((str(raw[k]), _key_text(k, variables))
                                for k in sorted(raw, reverse=True))

    def __repr__(self):
        return self.serialize()


def _quotient(c, d):
    """c / d of QQ raw values: c // d where exact, else one Fraction."""
    return c // d if c % d == 0 else Fraction(c, d)


def _primitive_part(raw):
    """(n, d, ints): a QQ term dict is n/d times its primitive part ints."""
    num = gcd(*[v.numerator for v in raw.values()])
    den = lcm(*[v.denominator for v in raw.values()])
    if num * den != 1:
        raw = {k: v.numerator * (den // v.denominator) // num
               for k, v in raw.items()}
    return num, den, raw


def _raw_point(domain, point):
    """The raw values of the coordinates of a point in x0, x1, x2."""
    values = [domain.unbox(v) for v in point]
    if len(values) != NVARS:
        raise ValueError(f"a point needs {NVARS} coordinates, "
                         f"got {len(values)}")
    return values


def dot(pairs, domain):
    """The sum of the products a * b of the pairs (a, b) of polynomials over
    domain: ``dot_raw`` on their term dicts, checked, made canonical once."""
    terms = []
    for a, b in pairs:
        if a.domain is not domain:
            domain.check_same(a.domain)
        if b.domain is not domain:
            domain.check_same(b.domain)
        terms.append((a.raw, b.raw))
    return MultiPoly.from_raw(domain, dot_raw(terms))


def multiples_matrix(pairs, keys=()):
    """The matrix, of raw values, whose column j holds the coefficients of
    m * f for the j-th pair (m, f) of a monomial key and a term dict: its
    terms are those of f, each key shifted by m, since keys add as
    exponents do.  The rows are the given keys in order, then the other
    keys in the order they appear."""
    rows = {k: {} for k in keys}
    for j, (m, terms) in enumerate(pairs):
        for e, c in terms.items():
            rows.setdefault(m + e, {})[j] = c
    return [[row.get(j, 0) for j in range(len(pairs))]
            for row in rows.values()]


def dot_raw(pairs):
    """The sum of the products of the pairs (left, right) of term dicts,
    as a term dict of raw values not yet canonical: the package's one
    product loop, with no domain check.  A degree of 2^31 or more is
    refused."""
    raw = {}
    get = raw.get
    for left, right in pairs:
        right = list(right.items())
        for ea, v in left.items():
            for eb, w in right:
                e = ea + eb
                raw[e] = v * w + get(e, 0)
    if raw and max(raw) >> 96 >= DEGREE_LIMIT:
        raise ValueError(f"a product of degree {max(raw) >> 96} >= 2^31")
    return raw


@lru_cache(maxsize=1024)
def _key_text(key, variables):
    """The text of the monomial of a key in the variables."""
    return monomial_text(key_exponent(key), variables)


def _graded(domain, raw, degree):
    """The Form of a canonical term dict, zero or homogeneous of degree,
    unchecked: a form whose degree checked inputs fix, such as a sum,
    product, minor or exact quotient of forms (see ``Form``)."""
    form = object.__new__(Form)
    form.domain, form.raw, form.degree = domain, raw, degree
    return form


class Form(MultiPoly):
    """A homogeneous polynomial with an explicit degree.

    The zero polynomial is homogeneous of every degree, so a zero Form may
    carry any nonnegative degree.  Equality and hashing are MultiPoly's.
    Between Forms, + and - need equal degrees, a product adds them and a
    scalar multiple keeps the degree; with any other MultiPoly each
    operator gives way to MultiPoly's, whose result is a MultiPoly.  Both
    classes take a sum or product's term dict from ``_plus`` or ``_times``
    and a form negates its own, so each result of a form is one object, not
    a MultiPoly wrapped again.  A form is checked once, where it
    enters (parser, JSON loader, ``Form(...)``, ``FormMatrix(...)``);
    ``_graded`` builds one whose degree is fixed.
    """

    __slots__ = ("degree",)

    def __init__(self, poly, degree):
        """The checked form of poly, zero or homogeneous of degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        raw = poly.raw
        if raw and not min(raw) >> 96 == degree == max(raw) >> 96:
            raise ValueError(f"polynomial {poly!r} is not homogeneous of "
                             f"degree {degree}")
        self.domain, self.raw, self.degree = poly.domain, raw, degree

    @property
    def poly(self):
        """The form itself, already a MultiPoly: kept for callers outside
        the package that read ``form.poly``."""
        return self

    @classmethod
    def zero(cls, domain, degree):
        return cls(MultiPoly.zero(domain), degree)

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.raw and other.raw and self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return _graded(self.domain, self.domain.canonical(self._plus(other)),
                       self.degree if self.raw else other.degree)

    __radd__ = __add__

    def __neg__(self):
        domain = self.domain
        return _graded(domain, domain.canonical(
            {e: -c for e, c in self.raw.items()}), self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Form):
            degree = self.degree + other.degree
        elif isinstance(other, MultiPoly):
            return NotImplemented
        else:
            degree = self.degree
        return _graded(self.domain, self.domain.canonical(self._times(other)),
                       degree)

    __rmul__ = __mul__

    def evaluate(self, point):
        """Value at an affine representative of a projective point.

        Well defined up to scaling by a nonzero scalar to the degree-th
        power, so callers should only use the zero/nonzero status.
        """
        if not any(_raw_point(self.domain, point)):
            raise ValueError("projective point must not be all zero")
        return super().evaluate(point)

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
        images[pivot] = MultiPoly.from_raw(domain, dict(zip(  # in x1, x2
            keys_of_degree(1)[1:], [coeffs[i] * minus_inv for i in params])))
        return images

    def restrict_to_line(self, line):
        """Pull back along the standard parametrization of Z(line)."""
        if not isinstance(line, Form):
            raise ValueError("line must be a degree-1 Form")
        return BinaryForm(self.substitute(line._line_images()), self.degree)

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
        return [self.coefficient((0, d - i, i)) for i in range(d + 1)]

    def serialize(self):
        return super().serialize(("x0", "s", "t"))


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
        self.one = domain.unbox(1)

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
            raw = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deeply") from None
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return MultiPoly.from_raw(self.domain, raw)

    def expr(self):
        raw = {}
        while True:
            sign = 1
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    sign = -sign
            for k, v in self.term().items():
                raw[k] = raw.get(k, 0) + (v if sign > 0 else -v)
            if self.peek() not in ("+", "-"):
                return self.domain.canonical(raw)

    def term(self):
        raw = self.factor()
        while self.peek() == "*":
            self.next()
            raw = dot_raw([(raw, self.factor())])
        return raw

    def factor(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        self.next()
        tok = self.next()
        if tok is None or not tok.isdecimal():
            raise ParseError("expected integer exponent after '^'")
        n = int(tok)
        degree = max(base) >> 96 if base else -1
        if degree <= 0:
            c = self._constant_power(base.get(0, 0), n)
            return {0: c} if c else {}
        if self.max_degree is not None and n * degree > self.max_degree:
            raise PowerDegreeError(f"a power of degree {n * degree}")
        if n * degree >= DEGREE_LIMIT:
            raise ParseError(f"a power of degree {n * degree} >= 2^31")
        if len(base) > 1:
            power = {0: self.one}
            for _ in range(n):
                power = dot_raw([(power, base)])
            return power
        (k, c), = base.items()  # keys add as exponents do, below 2^31 here
        p = self.domain.modulus
        return {k * n: pow(c, n, p) if p else c ** n}

    def _constant_power(self, c, n):
        """c**n of a raw value, mod p over GF(p); over QQ a value of more than
        MAX_CONSTANT_POWER_BITS bits is refused before it is computed."""
        p = self.domain.modulus
        if p:
            return pow(c, n, p)
        if self.domain == QQ:
            size = max(abs(c.numerator), c.denominator)
            if n * (size.bit_length() - 1) > MAX_CONSTANT_POWER_BITS:
                raise ParseError(f"the power {c}^{n} exceeds "
                                 f"{MAX_CONSTANT_POWER_BITS} bits")
        return c ** n

    def atom(self):
        tok = self.next()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            raw = self.expr()
            if self.next() != ")":
                raise ParseError("missing closing parenthesis")
            return raw
        if tok == "-":
            return {k: -v for k, v in self.atom().items()}
        if tok in VARIABLES:
            return {keys_of_degree(1)[VARIABLES.index(tok)]: self.one}
        if tok[0].isdigit():
            if max(map(len, tok.split("/"))) > MAX_DIGITS:  # before int()
                raise ParseError(f"{tok!r} has over {MAX_DIGITS} digits")
            try:  # int and Fraction read the same decimal digits alike
                c = self.domain.unbox(int(tok) if tok.isdecimal()
                                      else self.domain.parse(tok))
            except ValueError as exc:
                raise ParseError(f"bad number {tok!r}: {exc}") from exc
            return {0: c} if c else {}
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
    return list(map(key_exponent, keys_of_degree(d)))


@lru_cache(maxsize=64)
def keys_of_degree(d):
    """The keys of the monomials of degree d, in descending order."""
    return tuple(d << 96 | e0 << 64 | e1 << 32 | d - e0 - e1
                 for e0 in range(d, -1, -1) for e1 in range(d - e0, -1, -1))


def coefficient_rows(forms, degree):
    """Raw coefficient vectors of the given forms over the degree-d
    monomials, in the order of ``monomials_of_degree``.

    For degree 1 the vector of a linear form is its (x0, x1, x2)
    coefficients.
    """
    keys = keys_of_degree(degree)
    rows = []
    for f in forms:
        if f and f.degree != degree:
            raise ValueError(f"form of degree {f.degree}, expected {degree}")
        rows.append([f.raw.get(k, 0) for k in keys])
    return rows


def _eliminate(rows, p):
    """Gauss-Jordan elimination in place on raw values mod p (over QQ when
    p is None), taking as pivot the first nonzero entry at or below the
    current row, column by column; returns the pivot columns.  The rows
    must hold canonical raw values, and the reduced rows are canonical.
    One loop serves both fields: a row is cleared by cross-multiplying it
    with the pivot row.  Over GF(p) the pivot row is first made monic and
    only the cleared row's entries under its nonzeros are updated, mod p,
    in place.  Over QQ the rows are made integer rows once and primitive
    after each clearing, and the pivot rows are divided by their pivots at
    the end: the reduced row echelon form is unique, so it is the same."""
    if not p:
        for i, row in enumerate(rows):
            den = lcm(*[v.denominator for v in row])
            rows[i] = [v.numerator * (den // v.denominator) for v in row]
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        if r == len(rows):
            break
        for pivot in range(r, len(rows)):
            if rows[pivot][col]:
                break
        else:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        if p:
            inv = pow(top[col], -1, p)
            top = rows[r] = [v * inv % p for v in top]
        a = top[col]
        nonzero = [(j, v) for j, v in enumerate(top) if v]
        for i, row in enumerate(rows):
            b = row[col]
            if i == r or not b:
                continue
            if p:  # only the entries under the pivot row's nonzeros change
                for j, v in nonzero:
                    row[j] = (row[j] - b * v) % p
            else:
                if a != 1:  # (a * row - b * top) / gcd(a, b)
                    g = gcd(a, b)
                    b //= g
                    if a != g:
                        row = [a // g * v for v in row]
                for j, v in nonzero:
                    row[j] -= b * v
                content = gcd(*row)
                rows[i] = [v // content for v in row] if content > 1 else row
        pivots.append(col)
    if not p:
        for i, col in enumerate(pivots):
            d = rows[i][col]
            rows[i] = [v // d if v % d == 0 else Fraction(v, d)
                       for v in rows[i]]
    return pivots


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
