"""Poincare polynomials of the spaces in the construction.

Integer coefficient vectors, exact arithmetic only.  The variety algebra
knows projective spaces, products, projectivized-bundle shortcuts, and the
blow-up substitution rule P(Bl_Y X) = P(X) - P(Y) + P(Y)*P(P^(c-1)) for a
blow-up along Y of codimension c.
"""

from .field import InvariantError


class PoincarePoly:
    """A polynomial in q with integer coefficients, coefficients[i] = [q^i]."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([1])

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __bool__(self):
        return bool(self.coefficients)

    def __eq__(self, other):
        return isinstance(other, PoincarePoly) and \
            self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __add__(self, other):
        n = max(len(self.coefficients), len(other.coefficients))
        return PoincarePoly(
            [
                (self.coefficients[i] if i < len(self.coefficients) else 0)
                + (other.coefficients[i] if i < len(other.coefficients) else 0)
                for i in range(n)
            ]
        )

    def __sub__(self, other):
        n = max(len(self.coefficients), len(other.coefficients))
        return PoincarePoly(
            [
                (self.coefficients[i] if i < len(self.coefficients) else 0)
                - (other.coefficients[i] if i < len(other.coefficients) else 0)
                for i in range(n)
            ]
        )

    def __mul__(self, other):
        if not self or not other:
            return PoincarePoly.zero()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return PoincarePoly(out)

    def evaluate(self, q):
        return sum(c * q**i for i, c in enumerate(self.coefficients))

    def serialize(self):
        if not self.coefficients:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mono = "q" if i == 1 else f"q^{i}"
                term = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"PoincarePoly({list(self.coefficients)})"


def is_palindromic(p, degree):
    """Whether [q^i] p = [q^(degree-i)] p for all i (Poincare duality)."""
    coeffs = list(p.coefficients) + [0] * (degree + 1 - len(p.coefficients))
    if len(coeffs) != degree + 1:
        return False
    return coeffs == coeffs[::-1]


def poincare_projective(n):
    """P(P^n) = 1 + q + ... + q^n."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return PoincarePoly([1] * (n + 1))


# ---- variety expressions ----------------------------------------------


class DimensionError(ValueError):
    """Raised when an expression's dimension bookkeeping is violated."""


class VarietyExpr:
    """Base class for the symbolic variety algebra."""

    def poincare(self):
        raise NotImplementedError

    def dimension(self):
        raise NotImplementedError


class Literal(VarietyExpr):
    """A space with a known Poincare polynomial and dimension."""

    def __init__(self, name, poly, dim=None):
        self.name = name
        self.poly = poly
        self.dim = poly.degree if dim is None else dim

    def poincare(self):
        return self.poly

    def dimension(self):
        return self.dim

    def __repr__(self):
        return f"Literal({self.name})"


class ProjectiveSpace(VarietyExpr):
    def __init__(self, n):
        if n < 0:
            raise DimensionError("dimension must be nonnegative")
        self.n = n

    def poincare(self):
        return poincare_projective(self.n)

    def dimension(self):
        return self.n

    def __repr__(self):
        return f"P^{self.n}"


class Product(VarietyExpr):
    def __init__(self, *factors):
        self.factors = factors

    def poincare(self):
        out = PoincarePoly.one()
        for f in self.factors:
            out = out * f.poincare()
        return out

    def dimension(self):
        return sum(f.dimension() for f in self.factors)

    def __repr__(self):
        return " x ".join(map(repr, self.factors))


class ProjBundle(VarietyExpr):
    """A projectivized rank-r bundle over a base: P = P(base) * P(P^(r-1))."""

    def __init__(self, base, rank):
        if rank < 1:
            raise DimensionError("bundle rank must be positive")
        self.base = base
        self.rank = rank

    def poincare(self):
        return self.base.poincare() * poincare_projective(self.rank - 1)

    def dimension(self):
        return self.base.dimension() + self.rank - 1

    def __repr__(self):
        return f"P(rank-{self.rank} bundle / {self.base!r})"


class BlowUpSubstitute(VarietyExpr):
    """Substitution of a subvariety: P = P(total) - P(removed) + P(inserted).

    Covers both blow-ups (removed = centre, inserted = exceptional bundle)
    and blow-downs; the total's dimension is preserved.
    """

    def __init__(self, total, removed, inserted):
        self.total = total
        self.removed = removed
        self.inserted = inserted
        if removed.dimension() > total.dimension() \
                or inserted.dimension() > total.dimension():
            raise DimensionError(
                "substituted pieces cannot exceed the total's dimension"
            )

    def poincare(self):
        return (
            self.total.poincare()
            - self.removed.poincare()
            + self.inserted.poincare()
        )

    def dimension(self):
        return self.total.dimension()

    def __repr__(self):
        return f"({self.total!r} - {self.removed!r} + {self.inserted!r})"


# ---- the moduli space -------------------------------------------------

# frozen Poincare polynomial of the moduli space, degree 17, Euler number 192
MODULI_COEFFICIENTS = (
    1, 2, 6, 10, 14, 15, 16, 16, 16, 16, 16, 16, 15, 14, 10, 6, 2, 1,
)


def poincare_H():
    """P(H) of the space H that N is blown down from."""
    return PoincarePoly([1, 2, 5, 6, 5, 2, 1])


def poincare_open_stratum_closure():
    """P(N) for the geometric-quotient model N of the open-stratum closure.

    N is the blow-down of H along a P^2 x P^3 worth of exceptional data
    collapsing to a P^2:
    P(N) = P(H) - P(P^2)P(P^3) + P(P^2).
    """
    h = poincare_H()
    p2 = poincare_projective(2)
    p3 = poincare_projective(3)
    return h - p2 * p3 + p2


def poincare_B():
    """P(B) = P(N) * P(P^11) for the boundary model B, an
    11-dimensional projective-bundle-like space over N."""
    return poincare_open_stratum_closure() * poincare_projective(11)


def poincare_M():
    """P(M) assembled from the stratification.

    The moduli space replaces a P^2 x P^1 inside the boundary model B by a
    P^2 x P^13:
    P(M) = P(B) - P(P^2)P(P^1) + P(P^2)P(P^13).
    """
    b = poincare_B()
    p2 = poincare_projective(2)
    m = b - p2 * poincare_projective(1) + p2 * poincare_projective(13)
    expected = PoincarePoly(MODULI_COEFFICIENTS)
    if m != expected:
        raise InvariantError("stratification sum drifted from the frozen value")
    return m


# the spaces of the construction that ``betti`` knows by name
BUILTIN_POLYS = {
    "H": poincare_H,
    "N": poincare_open_stratum_closure,
    "B": poincare_B,
    "M": poincare_M,
}
