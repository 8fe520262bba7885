"""Exact coefficient domains: the rationals, prime fields, and parameter rings.

All arithmetic is exact; there is no floating point anywhere in the package.
Scalars are tagged with their domain and refuse to mix with scalars of a
different domain.

A scalar boxes a raw value: a Fraction over QQ, an int in [0, p) over
GF(p), and the ParamScalar itself over a parameter ring.  Polynomial loops
run on raw values and box each result once through ``Domain.reduce``, the
one place where a raw value is made canonical; so do the scalar operators.
"""

from fractions import Fraction
from functools import cached_property


class FieldMismatchError(ValueError):
    """Raised when scalars over different domains are combined."""


class InvariantError(RuntimeError):
    """A result broke an invariant the package guarantees: a package fault."""


# Miller-Rabin with these bases decides primality exactly for n < 3.3e24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


class Domain:
    """Base class for coefficient domains; ``reduce(raw)`` gives the
    canonical scalar of a raw value, or None when it is zero."""

    is_field = False
    modulus = None  # the p of GF(p); None for the other domains

    @cached_property
    def zero(self):
        return self.scalar(0)

    @cached_property
    def one(self):
        return self.scalar(1)

    def box(self, raw):
        """The canonical scalar of a raw value, zero included."""
        c = self.reduce(raw)
        return self.zero if c is None else c

    def box_terms(self, raw_terms):
        """Exponent -> raw value boxed to exponent -> nonzero scalar."""
        reduce = self.reduce
        return {e: c for e, v in raw_terms.items()
                if (c := reduce(v)) is not None}

    def parse(self, text):
        return self.scalar(Fraction(text.strip()))

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

    def scalar(self, value):
        if isinstance(value, FieldScalar):
            self.check_same(value.domain)
            return value
        return FieldScalar(self, Fraction(value))

    def reduce(self, raw):
        return FieldScalar(self, raw) if raw else None

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

    def scalar(self, value):
        if isinstance(value, FieldScalar):
            self.check_same(value.domain)
            return value
        if isinstance(value, Fraction):
            value = value.numerator * pow(value.denominator, -1, self.p)
        return FieldScalar(self, value % self.p)

    def reduce(self, raw):
        raw %= self.p
        return FieldScalar(self, raw) if raw else None

    def elements(self):
        return (FieldScalar(self, v) for v in range(self.p))

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
    """An exact element of QQ or of a prime field.

    Rationals are kept in lowest terms with positive denominator (the
    Fraction invariant); prime-field residues are kept in [0, p).
    """

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
        return FieldScalar(self.domain,
                           pow(self.value, -1, self.domain.modulus))

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
        result = self.domain.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.domain.scalar(other)
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.domain == other.domain and self.value == other.value

    def __hash__(self):
        return hash((self.domain, self.value))

    def __repr__(self):
        return f"{self.value}"

    def as_text(self):
        return str(self.value)


class ParamRing(Domain):
    """Polynomial ring in named parameters over a base field.

    Used by the verification layer to carry symbolic chart parameters
    (alpha, beta, a, b, c, d, t, ...) through matrix arithmetic.  It is a
    ring, not a field: only +, -, * and equality are supported.
    """

    is_field = False

    def __init__(self, base, names):
        self.base = base
        self.names = tuple(names)

    def scalar(self, value):
        if isinstance(value, ParamScalar):
            self.check_same(value.domain)
            return value
        c = self.base.scalar(value)
        zero_exp = (0,) * len(self.names)
        return ParamScalar(self, {zero_exp: c} if c else {})

    def reduce(self, raw):
        return raw if raw else None

    def variable(self, name):
        i = self.names.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return ParamScalar(self, {exp: self.base.one})

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
    """An element of a ParamRing: exponent tuples mapped to base scalars."""

    __slots__ = ("domain", "terms")

    def __init__(self, domain, terms):
        self.domain = domain
        self.terms = {e: c for e, c in terms.items() if c}

    value = property(lambda self: self)  # a ParamScalar is its own raw value

    def _coerce(self, other):
        if isinstance(other, ParamScalar):
            self.domain.check_same(other.domain)
            return other
        if isinstance(other, (int, Fraction, FieldScalar)):
            return self.domain.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        raw = {e: c.value for e, c in self.terms.items()}
        for e, c in other.terms.items():
            raw[e] = c.value + raw.get(e, 0)
        return ParamScalar(self.domain, self.domain.base.box_terms(raw))

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar(self.domain, {e: -c for e, c in self.terms.items()})

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
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                raw[e] = c1.value * c2.value + raw.get(e, 0)
        return ParamScalar(self.domain, self.domain.base.box_terms(raw))

    __rmul__ = __mul__

    def __pow__(self, n):
        result = self.domain.one
        for _ in range(n):
            result = result * self
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.domain, frozenset(self.terms.items())))

    def substitute(self, values):
        """Evaluate at a dict name -> base scalar, returning a base scalar."""
        missing = [n for n in self.domain.names if n not in values]
        if missing:
            raise ValueError(f"missing parameter values: {missing}")
        vals = [self.domain.base.scalar(values[n]) for n in self.domain.names]
        total = self.domain.base.zero
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                for _ in range(k):
                    term = term * v
            total = total + term
        return total

    def as_text(self):
        return _serialize_terms(
            (self.terms[e], zip(self.domain.names, e))
            for e in sorted(self.terms, reverse=True)
        )

    def __repr__(self):
        return self.as_text()


def _serialize_terms(terms):
    """Text of a sum of (coefficient, [(variable, exponent)]) terms, in order.

    Unit coefficients are dropped before a monomial, a leading minus sign
    becomes the joining operator, a coefficient that is itself a sum is
    parenthesized, and an empty sum prints as "0".
    """
    parts = []
    for c, powers in terms:
        factors = [f"{v}^{k}" if k > 1 else v for v, k in powers if k]
        text = c.as_text()
        if " " in text:
            text = f"({text})"
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if factors and text == "1":
            body = "*".join(factors)
        elif factors:
            body = text + "*" + "*".join(factors)
        else:
            body = text
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts) if parts else "0"
