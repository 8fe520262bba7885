"""Exact coefficient domains: the rationals, prime fields, and parameter rings.

All arithmetic is exact; there is no floating point anywhere in the package.
Scalars are tagged with their domain and refuse to mix with scalars of a
different domain.

A coefficient has a raw value: over QQ an int when it is integral and a
Fraction with denominator > 1 otherwise, an int in [0, p) over GF(p), and
the ParamScalar itself over a parameter ring.  Term dicts, of polynomials
and of parameter-ring scalars alike, store raw values, made canonical by
``Domain.canonical``; ``Domain.unbox`` gives the canonical raw value of
one scalar.  ``Domain.box`` gives the scalar of one raw value, a
FieldScalar over a field, whose ``value`` is that raw value: for the API
edge and for the results of the scalar operators.  Floats are refused
at the scalar edge.  The serializer boxes nothing: it takes a coefficient
as ``str`` of its raw value, the text of its scalar's ``as_text``, and a
monomial as the cached ``monomial_text`` of its exponents.

No module of the package builds a parameter ring: verify computes the
chart minors over QQ by Kronecker substitution.  ParamRing and
ParamScalar stay for callers outside the package until the bench's
counting pass stops wrapping ParamScalar's methods.  ParamScalar
arithmetic runs on raw values, as ``poly.dot_raw`` does: an operand of the
same ring is matched by identity before the equality check, adding the
int 0 (which ``dot_raw`` adds into every new monomial) returns the operand,
and the product adds exponent tuples with no generator.
``evaluate_raw`` is the one evaluation loop of the package:
``MultiPoly.evaluate``, ``Form.evaluate`` and verify's specialization of
the decoded chart-minor coefficients run it on raw values, which skips
zero exponents; the first two unbox the point once and box one result.
"""

import json
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, index


class FieldMismatchError(ValueError):
    """Raised when scalars over different domains are combined."""


class InvariantError(RuntimeError):
    """A result broke an invariant the package guarantees: a package fault."""


# Miller-Rabin with these bases decides primality exactly for n < 3.3e24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_DIGITS = 4300  # the interpreter reads and prints ints of this many digits
_DIGITS_BOUND = 10**MAX_DIGITS  # the least int of over MAX_DIGITS digits


def _is_prime(n):
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _refuse_float(value):
    if isinstance(value, float):
        raise TypeError(f"exact arithmetic only: refusing the float {value!r}")


class Domain:
    """Base class for coefficient domains.  Each converts one way per
    direction: ``unbox(value)`` gives the canonical raw value of a scalar,
    int or Fraction, with the checks, and ``box(raw)`` the scalar of a raw
    value, zero included; ``scalar`` is the two in turn."""

    is_field = False
    modulus = None  # the p of GF(p); None for the other domains

    @cached_property
    def zero(self):
        return self.scalar(0)

    @cached_property
    def one(self):
        return self.scalar(1)

    def canonical(self, raw_terms):
        """Exponent -> raw value, canonical and with the zeros dropped."""
        return {e: v for e, v in raw_terms.items() if v}

    def scalar(self, value):
        """The canonical scalar of a scalar, int or Fraction."""
        return self.box(self.unbox(value))

    def parse(self, text):
        """The scalar of a rational literal; ValueError, quoting it, on a bad
        one, a zero denominator included, or on a part of over MAX_DIGITS
        digits or a value whose numerator or denominator has that many (as
        Fraction reads an exponent or a decimal point); an exponent of 10^5
        or more gives 0 or that long a value, and is not expanded."""
        e = re.search(r"E([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
        big = e and (len(e[1]) > MAX_DIGITS or abs(int(e[1])) >= 10**5)
        mantissa = text[:e.start()] if e else text
        if re.search(rf"\d{{{MAX_DIGITS + 1}}}", mantissa.replace("_", "")):
            raise ValueError(f"{text.strip()!r} has over {MAX_DIGITS} digits")
        try:
            value = Fraction(mantissa + "E0" if big else text.strip())
        except ZeroDivisionError:
            raise ValueError(f"{text.strip()!r} has a zero denominator") \
                from None
        except ValueError:
            raise ValueError(f"Invalid literal for Fraction: "
                             f"{text.strip()!r}") from None
        if value and (big or max(abs(value.numerator),
                                 value.denominator) >= _DIGITS_BOUND):
            raise ValueError(f"{text.strip()!r} has over {MAX_DIGITS} digits")
        return self.scalar(value)

    def check_same(self, other):
        if self != other:
            raise FieldMismatchError(f"domain mismatch: {self} vs {other}")


class Rationals(Domain):
    """The field of arbitrary-precision rationals."""

    is_field = True

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def unbox(self, value):
        if type(value) is int:
            return value
        if isinstance(value, FieldScalar):
            self.check_same(value.domain)
            return value.value
        _refuse_float(value)
        if not isinstance(value, Fraction):
            value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def box(self, raw):
        if type(raw) is not int and raw.denominator == 1:
            raw = raw.numerator
        return FieldScalar(self, raw)

    def canonical(self, raw_terms):
        """Ints pass by one type test; a Fraction of denominator 1 becomes
        its numerator."""
        return {e: v if type(v) is int or v.denominator != 1 else v.numerator
                for e, v in raw_terms.items() if v}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Domain):
    """The prime field of odd order p < 2**62."""

    is_field = True

    def __init__(self, p):
        if p == 2 or p >= 2**62 or not _is_prime(p):
            raise ValueError(f"need an odd prime < 2^62, got {p}")
        self.p = self.modulus = p

    def unbox(self, value):
        if isinstance(value, FieldScalar):
            self.check_same(value.domain)
            return value.value
        _refuse_float(value)
        if isinstance(value, Fraction):
            if not value.denominator % self.p:
                raise ValueError(f"{value} has no value in {self}: its "
                                 f"denominator is a multiple of {self.p}")
            value = value.numerator * pow(value.denominator, -1, self.p)
        return value % self.p

    def box(self, raw):
        return FieldScalar(self, raw % self.p)

    def canonical(self, raw_terms):
        p = self.p
        return {e: r for e, v in raw_terms.items() if (r := v % p)}

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = Rationals()


_PRIME_FIELDS = {}


def GF(p):
    field = _PRIME_FIELDS.get(p)
    if field is None:
        field = _PRIME_FIELDS[p] = PrimeField(p)
    return field


class FieldScalar:
    """An exact element of QQ or of a prime field, whose ``value`` is its
    canonical raw value: built only by ``Domain.box``."""

    __slots__ = ("domain", "value")

    def __init__(self, domain, value):
        self.domain = domain
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            if other.domain is not self.domain:
                self.domain.check_same(other.domain)
            return other
        if isinstance(other, (int, Fraction)):
            return self.domain.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.domain.box(self.value + other.value)

    __radd__ = __add__

    def __neg__(self):
        return self.domain.box(-self.value)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.domain.box(self.value * other.value)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        p = self.domain.modulus
        return self.domain.box(pow(self.value, -1, p) if p
                               else Fraction(1, self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return self.domain.box(pow(self.value, index(n), self.domain.modulus))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.domain.scalar(other)
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return (self.domain is other.domain or self.domain == other.domain) \
            and self.value == other.value

    def __hash__(self):
        """The hash of the raw value, as the int or Fraction it equals has."""
        return hash(self.value)

    def __repr__(self):
        return f"{self.value}"

    def as_text(self):
        return str(self.value)


class ParamRing(Domain):
    """Polynomial ring in named parameters over a base field.

    No module of the package uses it now: the verification layer carries
    the chart parameters (alpha, beta, a, b, c, d) through its matrix
    arithmetic as integer codes over QQ (``verify.verify_chart_minors``).
    It is a ring, not a field: only +, -, * and equality are supported.
    """

    is_field = False

    def __init__(self, base, names):
        self.base = base
        self.names = tuple(names)

    def scalar(self, value):
        if isinstance(value, ParamScalar):
            self.check_same(value.domain)
            return value
        c = self.base.unbox(value)
        return ParamScalar.from_raw(self, {(0,) * len(self.names): c})

    unbox = scalar  # a ParamScalar is its own raw value

    def box(self, raw):
        return raw if raw else self.zero

    def variable(self, name):
        i = self.names.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return ParamScalar.from_raw(self, {exp: self.base.one.value})

    def __repr__(self):
        return f"{self.base}[{', '.join(self.names)}]"

    def __eq__(self, other):
        return (
            isinstance(other, ParamRing)
            and other.base == self.base
            and other.names == self.names
        )

    def __hash__(self):
        return hash(("params", self.base, self.names))


class ParamScalar:
    """An element of a ParamRing: exponent tuples mapped to raw base values."""

    __slots__ = ("domain", "raw")

    def __init__(self, domain, terms):
        base = domain.base
        self.domain = domain
        self.raw = base.canonical(
            {e: base.unbox(c) for e, c in terms.items()})

    @classmethod
    def from_raw(cls, domain, raw_terms):
        """The element of a dict exponent -> raw base value."""
        scalar = object.__new__(cls)
        scalar.domain, scalar.raw = domain, domain.base.canonical(raw_terms)
        return scalar

    value = property(lambda self: self)  # a ParamScalar is its own raw value

    @property
    def terms(self):
        """Exponent -> nonzero base scalar, boxed afresh on each read."""
        box = self.domain.base.box
        return {e: box(c) for e, c in self.raw.items()}

    def _coerce(self, other):
        if isinstance(other, ParamScalar):
            if other.domain is not self.domain:
                self.domain.check_same(other.domain)
            return other
        if isinstance(other, (int, Fraction, FieldScalar)):
            return self.domain.scalar(other)
        return NotImplemented

    def __add__(self, other):
        # poly.dot_raw adds the int 0 into every new monomial: no boxing for it
        if other.__class__ is int and not other:
            return self
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        raw = dict(self.raw)
        get = raw.get
        for e, c in other.raw.items():
            raw[e] = c + get(e, 0)
        return ParamScalar.from_raw(self.domain, raw)

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar.from_raw(self.domain,
                                    {e: -c for e, c in self.raw.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        raw = {}
        get = raw.get
        right = list(other.raw.items())
        for e1, c1 in self.raw.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                raw[e] = c1 * c2 + get(e, 0)
        return ParamScalar.from_raw(self.domain, raw)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("a parameter ring has no inverses: negative "
                             f"exponent {n}")
        result = self.domain.one
        for _ in range(n):
            result = result * self
        return result

    def __bool__(self):
        return bool(self.raw)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.raw == other.raw

    def __hash__(self):
        """A constant hashes as its raw value, as the int it equals does."""
        raw = self.raw
        if not raw or raw.keys() == {(0,) * len(self.domain.names)}:
            return hash(next(iter(raw.values()), 0))
        return hash((self.domain, frozenset(raw.items())))

    def as_text(self):
        raw, names = self.raw, self.domain.names
        return _serialize_terms((str(raw[e]), monomial_text(e, names))
                                for e in sorted(raw, reverse=True))

    def __repr__(self):
        return self.as_text()


def evaluate_raw(terms, values):
    """The value of (exponent tuple, raw value) pairs at the raw values of
    their variables, as a raw value not yet reduced: the one evaluation
    loop of polynomials, parameter-ring scalars and verify's decoded
    chart-minor coefficients.  A zero exponent
    multiplies nothing, since over QQ ``Fraction ** 0`` is a slow way to
    make 1."""
    total = 0
    for e, c in terms:
        for v, k in zip(values, e):
            if k:
                c = c * v ** k
        total = total + c
    return total


@lru_cache(maxsize=1024)
def monomial_text(exponents, variables):
    """The text of the monomial of an exponent tuple in the variables, such
    as x0^2*x1, and "" for 1."""
    return "*".join(f"{v}^{k}" if k > 1 else v
                    for v, k in zip(variables, exponents) if k)


def _serialize_terms(terms):
    """Text of a sum of (coefficient text, monomial text) terms, in order.

    Unit coefficients are dropped before a monomial, a leading minus sign
    becomes the joining operator, a coefficient that is itself a sum is
    parenthesized, and an empty sum prints as "0".  A coefficient's text
    is ``str`` of its raw value, the ``as_text`` of its boxed scalar.
    """
    parts = []
    for text, monomial in terms:
        if " " in text:
            text = f"({text})"
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if monomial:
            text = monomial if text == "1" else f"{text}*{monomial}"
        if not parts:
            parts.append(("-" if negative else "") + text)
        else:
            parts.append(("- " if negative else "+ ") + text)
    return " ".join(parts) if parts else "0"


# ---- JSON input --------------------------------------------------------

_JSON_KINDS = {int: "an integer", str: "a string", list: "a list",
               dict: "a JSON object"}


def check_json_type(value, path, kind):
    """value, if its type is kind (bool is not an integer); otherwise a
    ValueError naming the JSON path (none at the top level)."""
    if type(value) is not kind:
        raise ValueError(f"{path + ': ' if path else ''}expected "
                         f"{_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def check_json_list(value, path, item_type, length=None):
    """value, if it is a JSON list (of the given length) of item_type
    items; otherwise a ValueError naming the JSON path."""
    check_json_type(value, path, list)
    if length is not None and len(value) != length:
        raise ValueError(f"{path}: expected {length} items, got {len(value)}")
    for i, item in enumerate(value):
        check_json_type(item, f"{path}[{i}]", item_type)
    return value


def load_json(path):
    """The JSON value in a file; nesting too deep to decode is a
    ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
