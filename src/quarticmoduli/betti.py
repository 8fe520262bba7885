"""Poincare polynomials of the spaces in the construction.

Integer coefficient vectors, exact arithmetic only.  ``expression_poincare``
evaluates a JSON variety expression, one dict per node with a "type":
"projective" (P^n, key "n"), "literal" (a known polynomial, keys
"coefficients" and an optional "name"), "product" (key "factors"),
"projbundle" (the projectivization of a rank-r bundle, P(base)*P(P^(r-1)),
keys "base" and "rank") and "substitute" (P(total) - P(removed) +
P(inserted), keys "total", "removed" and "inserted").  The substitution
covers blow-ups, P(Bl_Y X) = P(X) - P(Y) + P(Y)*P(P^(c-1)) for a blow-up
along Y of codimension c, and blow-downs; it keeps the total's dimension.
Every node is checked against MAX_BETTI_DIMENSION before its polynomial is
computed, and every dimension is at least 0 (a literal needs a nonzero
coefficient), so no partial result exceeds the limit either.
"""

from itertools import zip_longest

from .field import (
    InvariantError,
    _refuse_float,
    _serialize_terms,
    check_json_list,
    check_json_type,
    monomial_text,
)


class PoincarePoly:
    """A polynomial in q with integer coefficients, coefficients[i] = [q^i]."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        for c in coeffs:
            if type(c) is not int:
                _refuse_float(c)
                raise TypeError("a Poincare polynomial has integer "
                                f"coefficients, got {type(c).__name__}")
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
        return PoincarePoly(map(sum, zip_longest(
            self.coefficients, other.coefficients, fillvalue=0)))

    def __sub__(self, other):
        return self + PoincarePoly([-c for c in other.coefficients])

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
        return _serialize_terms((str(c), monomial_text((i,), ("q",)))
                                for i, c in enumerate(self.coefficients) if c)

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

# the largest dimension of a space whose Poincare polynomial betti computes;
# the spaces of the construction have dimension at most 17
MAX_BETTI_DIMENSION = 1_000

# the deepest nesting of expressions accepted; the construction's nest 3 deep
MAX_EXPRESSION_DEPTH = 64

# the most coefficient products one expression may cost, a product a*b
# charged len(a)*len(b), and a leaf or a substitution one per coefficient
# that it builds or adds: about 0.3 s of work, three times the costliest
# single node within MAX_BETTI_DIMENSION (a product of 1,000 factors P^1)
MAX_EXPRESSION_PRODUCTS = 3_000_000


def expression_poincare(data):
    """(P(X), dim X) for the space X that the JSON expression data describes.

    Malformed input raises a ValueError that names its JSON path; the
    expression may nest at most MAX_EXPRESSION_DEPTH deep.  Every
    sub-expression is refused, before its polynomial is computed, when its
    dimension exceeds MAX_BETTI_DIMENSION; a product is refused as soon as
    its factors' dimensions add up past it.  A leaf, product or
    substitution that would take the evaluation past
    MAX_EXPRESSION_PRODUCTS is refused first.
    """
    spent = 0

    def charge(cost, at):
        nonlocal spent
        spent += cost
        if spent > MAX_EXPRESSION_PRODUCTS:
            raise ValueError(f"{at}the expression needs more than "
                             f"{MAX_EXPRESSION_PRODUCTS} coefficient products")

    def times(a, b, at):
        charge(len(a.coefficients) * len(b.coefficients), at)
        return a * b

    def evaluate(data, path, depth):
        if depth > MAX_EXPRESSION_DEPTH:
            raise ValueError("expression nested too deeply")
        check_json_type(data, path, dict)
        at = f"{path}: " if path else ""

        def checked(dim):
            if dim > MAX_BETTI_DIMENSION:
                raise ValueError(f"{at}dimension {dim} exceeds the limit of "
                                 f"{MAX_BETTI_DIMENSION}")
            return dim

        def sub(key):
            return evaluate(data.get(key), at + key, depth + 1)

        kind = data.get("type")
        if kind == "projective":
            n = check_json_type(data.get("n"), at + "n", int)
            if n < 0:
                raise ValueError(f"{at}dimension must be nonnegative")
            charge(checked(n) + 1, at)
            return poincare_projective(n), n
        if kind == "literal":
            check_json_type(data.get("name", "literal"), at + "name", str)
            poly = PoincarePoly(check_json_list(data.get("coefficients"),
                                                at + "coefficients", int))
            charge(len(poly.coefficients), at)
            if not poly:
                raise ValueError(f"{at}coefficients: a literal needs a "
                                 "nonzero coefficient")
            return poly, checked(poly.degree)
        if kind == "product":
            factors = check_json_type(data.get("factors"), at + "factors",
                                      list)
            polys, dim = [], 0
            for i, factor in enumerate(factors):
                poly, factor_dim = evaluate(factor, f"{at}factors[{i}]",
                                            depth + 1)
                dim = checked(dim + factor_dim)
                polys.append(poly)
            # lowest degree first: a constant factor then costs one term,
            # not a pass over the product so far; each factor is the outer
            # loop of its product, the longer product so far the inner
            poly = PoincarePoly.one()
            for factor in sorted(polys, key=lambda p: p.degree):
                poly = times(factor, poly, at)
            return poly, dim
        if kind == "projbundle":
            base, base_dim = sub("base")
            rank = check_json_type(data.get("rank"), at + "rank", int)
            if rank < 1:
                raise ValueError(f"{at}bundle rank must be positive")
            dim = checked(base_dim + rank - 1)
            return times(base, poincare_projective(rank - 1), at), dim
        if kind == "substitute":
            total, dim = sub("total")
            removed, removed_dim = sub("removed")
            inserted, inserted_dim = sub("inserted")
            if removed_dim > dim or inserted_dim > dim:
                raise ValueError(f"{at}substituted pieces cannot exceed the "
                                 "total's dimension")
            charge(3 * (dim + 1), at)  # two additions, on at most dim + 1
            return total - removed + inserted, dim
        raise ValueError(f"{at}type: unknown expression type {kind!r}; "
                         "known: literal, product, projbundle, projective, "
                         "substitute")

    return evaluate(data, "", 0)


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
