"""Executable replays of the printed matrix identities.

Each verifier rebuilds the displayed objects from scratch, performs the
computation with the package's exact arithmetic, and reports computed
versus expected.  Scalar-cleared variants are used where a display
contains inverse scalars.
"""

import random
from operator import mul

import quarticmoduli as qm

from .field import (GF, QQ, InvariantError, _serialize_terms, evaluate_raw,
                    monomial_text)
from .matrices import SHAPES, FormMatrix, act, random_form, random_matrix
from .poly import (VARIABLES, Form, MultiPoly, _key_text, key_exponent,
                   keys_of_degree)

PASS = "pass"
PASS_WITH_NOTE = "pass-with-note"
FAIL = "fail"


class IdentityReport:
    """Outcome of replaying one printed identity."""

    def __init__(self, name, status, computed, expected, anchor, note=""):
        self.name = name
        self.status = status
        self.computed = computed
        self.expected = expected
        self.anchor = anchor
        self.note = note

    @property
    def passed(self):
        return self.status in (PASS, PASS_WITH_NOTE)

    def to_json_dict(self):
        return {
            "schema": 1,
            "name": self.name,
            "status": self.status,
            "computed": self.computed,
            "expected": self.expected,
            "anchor": self.anchor,
            "note": self.note,
        }

    def render_text(self):
        lines = [f"[{self.status}] {self.name}", f"  identity: {self.anchor}"]
        if self.note:
            lines.append(f"  note: {self.note}")
        if self.status == FAIL:
            lines.append(f"  computed: {self.computed}")
            lines.append(f"  expected: {self.expected}")
        return "\n".join(lines)

    def __repr__(self):
        return f"IdentityReport({self.name}, {self.status})"


def _transition_matrices(domain, alpha):
    """The printed A1 on (3,2,2) -> (1,1,1), g on (3,2,2) and h on
    (1,1,1) over a field with a concrete scalar alpha."""
    x0, x1, x2 = (Form.variable(domain, i) for i in range(3))
    zero, zero1, zero2 = (Form.zero(domain, d) for d in range(3))
    one = Form.constant(domain, 1)
    xa = x0 * alpha + x1
    src, tgt = SHAPES["res0"]
    a1 = FormMatrix(src, tgt, [
        [zero2, x0 * x2, -(x0 * x0)],
        [-x2, zero1, xa],
        [x0, -xa, zero1],
    ])
    # entries (1, 0) and (2, 0) lie below the filtration: the constructor
    # gives their zeros degree 0
    g = FormMatrix(src, src, [
        [one * alpha ** 3, x0 * alpha ** 2 - x1 * alpha, x2 * alpha ** 2],
        [zero, one, zero],
        [zero, zero, -(one * alpha)],
    ])
    inv = alpha.inverse()
    h = FormMatrix(tgt, tgt, [
        [one, zero, zero],
        [one * inv, -(one * inv * inv), zero],
        [zero, zero, one * inv],
    ])
    return a1, g, h


def _a0_matrix(domain, beta):
    x0, x1, x2 = (Form.variable(domain, i) for i in range(3))
    zero1, zero2 = Form.zero(domain, 1), Form.zero(domain, 2)
    xb = x0 + x1 * beta
    return FormMatrix(*SHAPES["res0"], [
        [zero2, x1 * x2, -(x1 * x1)],
        [-x2, zero1, xb],
        [x1, -xb, zero1],
    ])


def verify_transition(alpha):
    """Check g*A1*h = A0 at beta = 1/alpha, via the alpha^2-cleared h.

    Also checks det g = -alpha^4 and alpha^3 * det h = -1.
    """
    domain = alpha.domain
    if not alpha:
        raise ValueError("alpha must be nonzero")
    a1, g, h = _transition_matrices(domain, alpha)
    a0 = _a0_matrix(domain, alpha.inverse())
    asq = alpha * alpha
    lhs = act(g, a1, h.scaled(asq))
    rhs = a0.scaled(asq)
    ok = lhs == rhs
    det_g = g.determinant()
    det_h = h.determinant()
    minus_one = Form.constant(domain, -1)
    ok = ok and det_g == minus_one * alpha ** 4
    ok = ok and det_h * alpha ** 3 == minus_one
    return IdentityReport(
        "transition",
        PASS if ok else FAIL,
        computed={
            "g*A1*(alpha^2*h)": lhs.serialize_entries(),
            "det_g": det_g.serialize(),
            "alpha^3*det_h": (det_h * alpha ** 3).serialize(),
        },
        expected={
            "alpha^2*A0": rhs.serialize_entries(),
            "det_g": (minus_one * alpha ** 4).serialize(),
            "alpha^3*det_h": "-1",
        },
        anchor="g*A1*h = A0 at beta = alpha^-1, det g = -alpha^4, "
        "det h = -alpha^-3",
    )


def verify_cocycle(seed):
    """det(g*X*h) = alpha * det X for X = A1 + B1 with a random direction B1."""
    domain = GF(101)
    rng = random.Random(seed)
    alpha = domain.scalar(rng.randrange(1, domain.p))
    a1, g, h = _transition_matrices(domain, alpha)
    x = a1 + random_matrix("res0", domain, rng=rng)
    lhs = act(g, x, h).determinant()
    rhs = x.determinant() * alpha
    ok = lhs == rhs
    return IdentityReport(
        "cocycle",
        PASS if ok else FAIL,
        computed={"det(g*X*h)": lhs.serialize()},
        expected={"alpha*det(X)": rhs.serialize()},
        anchor="det(xi(A1 + B1)) = alpha * det(A1 + B1) for xi(X) = g*X*h",
        note=f"alpha = {alpha.as_text()}, seed = {seed}",
    )


def _random_pencil_parameters(domain, rng):
    """Scalars (gamma, delta), not both zero, for the linear form
    w = gamma*x1 + delta*x2: each pair drawn through random_form."""
    pick = lambda: random_form(domain, 0, rng).coefficient((0, 0, 0))
    while True:
        gamma, delta = pick(), pick()
        if gamma or delta:
            return gamma, delta


def _random_deformation_instance(domain, rng):
    x0, x1, x2 = (Form.variable(domain, i) for i in range(3))
    xbar0 = x0 + random_form(domain, 1, rng)
    gamma, delta = _random_pencil_parameters(domain, rng)
    w = x1 * gamma + x2 * delta
    q = [random_form(domain, 2, rng) for _ in range(3)]
    y = [random_form(domain, 1, rng) for _ in range(3)]
    z = [random_form(domain, 1, rng) for _ in range(3)]
    t = domain.scalar(rng.randrange(1, domain.p))
    return qm.degeneration.DeformationInstance(domain, xbar0, w, q, y, z, t)


def verify_reduction_chain(seed):
    """Replay the six-step 5x4 reduction on a seeded instance.

    Each intermediate matrix is compared against its printed pattern; a
    failure names the first diverging step.
    """
    domain = GF(101)
    rng = random.Random(seed)
    instance = _random_deformation_instance(domain, rng)
    trace = qm.degeneration.deformation_reduction_trace(instance)
    expected = instance.expected_trace()
    first_bad = None
    for step, (got, want) in enumerate(zip(trace[1:], expected), start=1):
        if got != want:
            first_bad = step
            break
    ok = first_bad is None
    return IdentityReport(
        "reduction-chain",
        PASS if ok else FAIL,
        computed={"steps_matched": (first_bad or 7) - 1 if not ok else 6},
        expected={"steps_matched": 6},
        anchor="six elementary-operation steps turning the bordered 5x4 "
        "deformation matrix into its normal form",
        note="" if ok else f"first diverging step: {first_bad}",
    )


# each chart parameter becomes the integer 2^(16*w) for its weight w, a
# parameter monomial of exponent e the 16-bit digit place e.w (see
# verify_chart_minors)
_CHART_PARAMETERS = ("alpha", "beta", "a", "b", "c", "d")
_CHART_WEIGHTS = (1, 4, 10, 18, 23, 25)
_CHART_POINT = tuple(1 << 16 * w for w in _CHART_WEIGHTS)
# place e.w -> exponent tuple e: 1, the six e_i and the 21 e_i + e_j
_CHART_CODES = {sum(map(mul, e, _CHART_WEIGHTS)): e for e in (
    tuple((k == i) + (k == j) for k in range(6))
    for i in range(7) for j in range(i, 7))}


def _chart_minors():
    """(minors, printed): the maximal minors of the chart Kronecker matrix
    and the three printed quadrics, each parameter at its code point, as
    quadrics over QQ."""
    al, be, pa, pb, pc, pd = _CHART_POINT
    x0, x1, x2 = (Form.variable(QQ, i) for i in range(3))
    xb = x0 + x1 * al + x2 * be
    k = FormMatrix((2, 2), (1, 1, 1), [
        [-x2, x1 * pc, xb],
        [x1, -xb + x1 * pa + x2 * pb, x2 * pd],
    ])
    printed = [
        x1 * x2 * (pc * pd) + xb * (xb - x1 * pa - x2 * pb),
        -(x2 * x2 * pd) - xb * x1,
        x2 * (xb - x1 * pa - x2 * pb) - x1 * x1 * pc,
    ]
    return k.maximal_minors(), printed


def _decode(code):
    """The parameter polynomial {exponent tuple: int} of an integer code,
    read as balanced base-2^16 digits in [-2^15, 2^15), the digit at each
    place the coefficient of its exponent; a nonzero digit at a place
    that is no exponent's is an InvariantError.  Runs of zero digits are
    skipped at once, by the lowest set bit."""
    terms, place = {}, 0
    while code:
        skip = ((code & -code).bit_length() - 1) // 16
        code >>= 16 * skip
        place += skip
        digit = (code + 0x8000 & 0xFFFF) - 0x8000
        if place not in _CHART_CODES:
            raise InvariantError(f"digit {digit} at place {place} is off "
                                 "the chart parameter codes")
        terms[_CHART_CODES[place]] = digit
        code = (code - digit) >> 16
        place += 1
    return terms


def _specialize(decoded, point):
    """The quadric over QQ of a decoded minor {x-key: parameter terms} at
    a point of raw parameter values."""
    return Form(MultiPoly.from_raw(QQ, {
        k: evaluate_raw(terms.items(), point)
        for k, terms in decoded.items()}), 2)


def _minor_text(decoded):
    """A decoded minor printed as a polynomial whose coefficients are
    parameter polynomials: each x-coefficient by descending exponent
    tuple, parenthesized when it is a sum."""
    return _serialize_terms(
        (_serialize_terms((str(terms[e]), monomial_text(e, _CHART_PARAMETERS))
                          for e in sorted(terms, reverse=True)),
         _key_text(k, VARIABLES))
        for k, terms in sorted(decoded.items(), reverse=True))


def verify_chart_minors(seed=0, samples=200):
    """Match the three printed chart minors symbolically, then sample.

    The minors of [[-x2, c*x1, xbar0], [x1, -xbar0 + a*x1 + b*x2, d*x2]],
    xbar0 = x0 + alpha*x1 + beta*x2, are quadrics in x0, x1, x2 whose
    coefficients are integer polynomials of total degree at most 2 in the
    parameters (alpha, beta, a, b, c, d), as are those of the printed
    quadrics.  They are computed over QQ by Kronecker substitution (von
    zur Gathen and Gerhard, Modern Computer Algebra, section 8.4): each
    parameter is the integer 2^(16*w) for its weight w in (1, 4, 10, 18,
    23, 25), so a parameter monomial of exponent e becomes the 16-bit
    digit place e.w.  {0} and the weights form a Golomb ruler, so the 28
    monomials of degree at most 2 take 28 distinct places, up to 50.

    A polynomial whose coefficients lie in (-2^15, 2^15) is then one
    balanced base-2^16 digit a monomial, so equal codes mean equal
    polynomials.  Every factor here is linear in x0, x1, x2 with each
    x-coefficient at most three parameter terms of coefficient +-1, and
    each quadric is at most two products of two factors, so a coefficient
    of a minor or a printed quadric is at most 2*2*3*3 = 36 in absolute
    value (4 in fact), and one of m - p or m + p at most 72.  So the sign
    of each minor against the printed convention is decided by comparing
    codes, and each x-coefficient of a minor is decoded once, for printing
    as a parameter-ring polynomial prints and for the samples.

    Sampling checks that a=b=c=d=0 forces the common factor xbar0 and
    that a nonzero (c, d) destroys it.
    """
    minors, printed = _chart_minors()
    signs = [1 if m == p else -1 if m == -p else 0
             for m, p in zip(minors, printed)]
    symbolic_ok = 0 not in signs
    decoded = [{k: _decode(c) for k, c in m.raw.items()} for m in minors]
    x0, x1, x2 = (Form.variable(QQ, i) for i in range(3))
    rng = random.Random(seed)
    sample_ok = True
    half = samples // 2
    for trial in range(samples):
        # raw (alpha, beta, a, b, c, d)
        point = [rng.randrange(-5, 6), rng.randrange(-5, 6), 0, 0, 0, 0]
        if trial < half:
            # a=b=c=d=0: the minors must share the factor xbar0
            want = (x0 + x1 * point[0] + x2 * point[1]).normalized()
        else:
            # nonzero (c, d): no common linear factor
            want = None
            point[2:4] = rng.randrange(-5, 6), rng.randrange(-5, 6)
            while not (point[4] or point[5]):
                point[4:] = rng.randrange(-5, 6), rng.randrange(-5, 6)
        special = [_specialize(m, point) for m in decoded]
        if qm.gcd.common_linear_factor(special) != want:
            sample_ok = False
            break
    ok = symbolic_ok and sample_ok
    return IdentityReport(
        "chart-minors",
        PASS if ok else FAIL,
        computed={
            "signs": signs,
            "minors": [_minor_text(m) for m in decoded],
            "samples_ok": sample_ok,
        },
        expected={
            "minors": [
                "c*d*x1*x2 + xbar0*(xbar0 - a*x1 - b*x2)",
                "-d*x2^2 - xbar0*x1",
                "x2*(xbar0 - a*x1 - b*x2) - c*x1^2",
            ],
            "samples_ok": True,
        },
        anchor="the three maximal minors of the chart Kronecker matrix, "
        "with common factor xbar0 exactly on a=b=c=d=0",
        note=f"per-minor signs vs printed convention: {signs}",
    )


def verify_fibre_determinant(seed):
    """det of the w-shifted fibre matrix equals x0*(x0*q0 + x1*q1 + x2*q2)."""
    domain = GF(101)
    rng = random.Random(seed)
    x0, x1, x2 = (Form.variable(domain, i) for i in range(3))
    q0 = random_form(domain, 2, rng)
    q1 = _random_form_in(domain, rng, (1, 2), 2)
    q2 = _random_form_in(domain, rng, (2,), 2)
    gamma = domain.scalar(rng.randrange(domain.p))
    delta = domain.scalar(rng.randrange(domain.p))
    w = x1 * gamma + x2 * delta
    zero1 = Form.zero(domain, 1)
    computed = FormMatrix(*SHAPES["res0"], [
        [q0, q1 - x2 * w, q2 + x1 * w],
        [-x2, zero1, x0],
        [x1, -x0, zero1],
    ]).determinant()
    expected = x0 * (x0 * q0 + x1 * q1 + x2 * q2)
    ok = computed == expected
    return IdentityReport(
        "fibre-determinant",
        PASS if ok else FAIL,
        computed={"det": computed.serialize()},
        expected={"x0*(x0*q0 + x1*q1 + x2*q2)": expected.serialize()},
        anchor="determinant of the w-shifted fibre matrix "
        "[[q0, q1 - x2*w, q2 + x1*w], [-x2, 0, x0], [x1, -x0, 0]]",
        note=f"seed = {seed}",
    )


def _random_form_in(domain, rng, variables, degree):
    """A random form of the given degree in a subset of the variables."""
    return Form(MultiPoly.from_raw(domain, {
        k: rng.randrange(domain.p) for k in keys_of_degree(degree)
        if not any(key_exponent(k)[i] for i in range(3) if i not in variables)
    }), degree)


def verify_tangent_quartic(seed, domain=None):
    """The first-order quartic of a boundary deformation, three ways.

    For A the bordered zero-determinant matrix with parameter w and B a
    random direction, checks that the t-linear coefficient of det(A + tB)
    equals the sum of row-replaced determinants, equals
    x0*sum(x_i b_0i) - w*(x1*sum(x_i b_1i) + x2*sum(x_i b_2i)), and
    vanishes at p = Z(x0, w).

    The t-linear coefficient is read off values of the cubic
    det(A + tB) = c0 + c1*t + c2*t^2 + c3*t^3, whose leading coefficient
    is c3 = det B: the values at t = 1 and t = -1 give
    c1 = (det(A + B) - det(A - B))/2 - det B.  Only 2 is inverted, so this
    is exact over QQ and over GF(p) for every odd p.
    """
    domain = domain or GF(101)
    rng = random.Random(seed)
    x0, x1, x2 = (Form.variable(domain, i) for i in range(3))
    gamma, delta = _random_pencil_parameters(domain, rng)
    w = x1 * gamma + x2 * delta
    a = qm.strata.boundary_matrix(x0, w)
    b = random_matrix("res0", domain, rng=rng)
    row_sum = qm.degeneration.tangent_quartic(a, b)
    odd = (a + b).determinant() - (a + b.scaled(-1)).determinant()
    t_linear = odd * domain.scalar(2).inverse() - b.determinant()
    sums = [x0 * b0 + x1 * b1 + x2 * b2 for b0, b1, b2 in b.entries]
    closed = x0 * sums[0] - w * (x1 * sums[1] + x2 * sums[2])
    p = (domain.zero, delta, -gamma)
    checks = {
        "t_linear_equals_row_sum": t_linear == row_sum,
        "equals_closed_form": row_sum == closed,
        "vanishes_at_p": not row_sum.evaluate(p) if row_sum else True,
        "nonzero": bool(row_sum),
    }
    ok = all(checks.values())
    return IdentityReport(
        "tangent-quartic",
        PASS if ok else FAIL,
        computed={k: bool(v) for k, v in checks.items()},
        expected={k: True for k in checks},
        anchor="f_{A,B} = [t^1] det(A + tB) = sum of row-replaced "
        "determinants = x0*sum(x_i*b_0i) - w*(x1*sum(x_i*b_1i) "
        "+ x2*sum(x_i*b_2i)), vanishing at Z(x0, w)",
        note=f"seed = {seed}",
    )


# printed coefficient list of the Poincare polynomial: the q^6 term is
# absent from the printed display
PRINTED_MODULI_COEFFICIENTS = (
    1, 2, 6, 10, 14, 15, 0, 16, 16, 16, 16, 16, 15, 14, 10, 6, 2, 1,
)


def verify_poincare_corollary():
    """Compare the pipeline Poincare polynomial with the printed display.

    The printed coefficient list omits the q^6 term; the comparison is
    expected to differ in exactly that coefficient (16 computed versus
    absent), which is reported as a note rather than a failure.
    """
    computed = qm.betti.poincare_M()
    printed = qm.betti.PoincarePoly(PRINTED_MODULI_COEFFICIENTS)
    diff = computed - printed
    expected_diff = qm.betti.PoincarePoly([0] * 6 + [16])
    palindromic = qm.betti.is_palindromic(computed, 17)
    ok = diff == expected_diff and palindromic
    return IdentityReport(
        "poincare-corollary",
        (PASS_WITH_NOTE if ok else FAIL),
        computed={
            "coefficients": list(computed.coefficients),
            "euler_number": computed.evaluate(1),
            "palindromic_degree_17": palindromic,
            "diff_vs_printed": diff.serialize(),
        },
        expected={
            "printed_coefficients": list(PRINTED_MODULI_COEFFICIENTS),
            "printed_euler_number": printed.evaluate(1),
            "diff_vs_printed": "16*q^6",
        },
        anchor="P(M) = P(N)*P(P11) - P(P2)*P(P1) + P(P2)*P(P13) versus the "
        "printed coefficient list",
        note="the printed list omits the 16*q^6 term; the assembled "
        "polynomial is palindromic of degree 17 with Euler number "
        f"{computed.evaluate(1)}",
    )


# each verifier takes a seed, which transition and poincare-corollary ignore
ALL_VERIFIERS = {
    "transition": lambda seed: verify_transition(QQ.scalar(2)),
    "cocycle": verify_cocycle,
    "reduction-chain": verify_reduction_chain,
    "chart-minors": verify_chart_minors,
    "fibre-determinant": verify_fibre_determinant,
    "tangent-quartic": verify_tangent_quartic,
    "poincare-corollary": lambda seed: verify_poincare_corollary(),
}


def run_all():
    return [fn(0) for fn in ALL_VERIFIERS.values()]
