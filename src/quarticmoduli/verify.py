"""Executable replays of the printed matrix identities.

Each verifier rebuilds the displayed objects from scratch, performs the
computation with the package's exact arithmetic, and reports computed
versus expected.  Scalar-cleared variants are used where a display
contains inverse scalars.
"""

import random

from .betti import PoincarePoly, is_palindromic, poincare_M
from .degeneration import (
    DeformationInstance,
    deformation_reduction_trace,
    tangent_quartic,
)
from .field import GF, QQ, ParamRing, ParamScalar, evaluate_raw
from .gcd import common_linear_factor
from .matrices import (
    FormMatrix,
    det,
    mat_mul,
    random_form,
    random_matrix,
)
from .poly import Form, MultiPoly, monomials_of_degree
from .strata import boundary_matrix

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


def _scaled(m, c):
    return [[e * c for e in row] for row in m]


def _vars(domain):
    return tuple(MultiPoly.variable(domain, i) for i in range(3))


def _transition_matrices(domain, alpha):
    """The printed A1, g, h over a field with a concrete scalar alpha."""
    x0, x1, x2 = _vars(domain)
    one = MultiPoly.constant(domain, 1)
    zero = MultiPoly.zero(domain)
    a1 = [
        [zero, x0 * x2, -(x0 * x0)],
        [-x2, zero, x0 * alpha + x1],
        [x0, -(x0 * alpha + x1), zero],
    ]
    g = [
        [one * alpha ** 3, x0 * alpha ** 2 - x1 * alpha, x2 * alpha ** 2],
        [zero, one, zero],
        [zero, zero, -(one * alpha)],
    ]
    inv = alpha.inverse()
    h = [
        [one, zero, zero],
        [one * inv, -(one * inv * inv), zero],
        [zero, zero, one * inv],
    ]
    return a1, g, h


def _a0_matrix(domain, beta):
    x0, x1, x2 = _vars(domain)
    zero = MultiPoly.zero(domain)
    xb = x0 + x1 * beta
    return [
        [zero, x1 * x2, -(x1 * x1)],
        [-x2, zero, xb],
        [x1, -xb, zero],
    ]


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
    lhs = mat_mul(mat_mul(g, a1), _scaled(h, asq))
    rhs = _scaled(a0, asq)
    ok = lhs == rhs
    det_g = det(g)
    det_h = det(h)
    minus_one = MultiPoly.constant(domain, -1)
    ok = ok and det_g == minus_one * alpha ** 4
    ok = ok and det_h * alpha ** 3 == minus_one
    return IdentityReport(
        "transition",
        PASS if ok else FAIL,
        computed={
            "g*A1*(alpha^2*h)": [[e.serialize() for e in r] for r in lhs],
            "det_g": det_g.serialize(),
            "alpha^3*det_h": (det_h * alpha ** 3).serialize(),
        },
        expected={
            "alpha^2*A0": [[e.serialize() for e in r] for r in rhs],
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
    degrees = [[2, 2, 2], [1, 1, 1], [1, 1, 1]]
    b1 = [
        [random_form(domain, degrees[i][j], rng).poly for j in range(3)]
        for i in range(3)
    ]
    x = [[a1[i][j] + b1[i][j] for j in range(3)] for i in range(3)]
    lhs = det(mat_mul(mat_mul(g, x), h))
    rhs = det(x) * alpha
    ok = lhs == rhs
    return IdentityReport(
        "cocycle",
        PASS if ok else FAIL,
        computed={"det(g*X*h)": lhs.serialize()},
        expected={"alpha*det(X)": rhs.serialize()},
        anchor="det(xi(A1 + B1)) = alpha * det(A1 + B1) for xi(X) = g*X*h",
        note=f"alpha = {alpha.as_text()}, seed = {seed}",
    )


def _random_deformation_instance(domain, rng):
    xbar0 = Form(
        MultiPoly.variable(domain, 0) + random_form(domain, 1, rng).poly, 1
    )
    # w must be a nonzero form in x1, x2
    while True:
        gamma = domain.scalar(rng.randrange(domain.p))
        delta = domain.scalar(rng.randrange(domain.p))
        if gamma or delta:
            break
    w = Form(
        MultiPoly.variable(domain, 1) * gamma
        + MultiPoly.variable(domain, 2) * delta,
        1,
    )
    q = [random_form(domain, 2, rng) for _ in range(3)]
    y = [random_form(domain, 1, rng) for _ in range(3)]
    z = [random_form(domain, 1, rng) for _ in range(3)]
    t = domain.scalar(rng.randrange(1, domain.p))
    return DeformationInstance(domain, xbar0, w, q, y, z, t)


def verify_reduction_chain(seed):
    """Replay the six-step 5x4 reduction on a seeded instance.

    Each intermediate matrix is compared against its printed pattern; a
    failure names the first diverging step.
    """
    domain = GF(101)
    rng = random.Random(seed)
    instance = _random_deformation_instance(domain, rng)
    trace = deformation_reduction_trace(instance)
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


def verify_chart_minors(seed=0, samples=200):
    """Match the three printed chart minors symbolically, then sample.

    The minors of [[-x2, c*x1, xbar0], [x1, -xbar0 + a*x1 + b*x2, d*x2]]
    are computed over a parameter ring in (alpha, beta, a, b, c, d) and
    compared with the printed quadrics up to the fixed sign convention;
    sampling checks that a=b=c=d=0 forces the common factor xbar0 and that
    a nonzero (c, d) destroys it.
    """
    ring = ParamRing(QQ, ("alpha", "beta", "a", "b", "c", "d"))
    al, be, pa, pb, pc, pd = (ring.variable(n) for n in ring.names)
    x0, x1, x2 = _vars(ring)
    xb = x0 + x1 * al + x2 * be
    k = FormMatrix.from_polys((2, 2), (1, 1, 1), [
        [-x2, x1 * pc, xb],
        [x1, -xb + x1 * pa + x2 * pb, x2 * pd],
    ])
    minors = k.maximal_minors()
    printed = [
        x1 * x2 * (pc * pd) + xb * (xb - x1 * pa - x2 * pb),
        -(x2 * x2 * pd) - xb * x1,
        x2 * (xb - x1 * pa - x2 * pb) - x1 * x1 * pc,
    ]
    signs = []
    symbolic_ok = True
    for m, p in zip(minors, printed):
        if m.poly == p:
            signs.append(1)
        elif m.poly == -p:
            signs.append(-1)
        else:
            signs.append(0)
            symbolic_ok = False
    rng = random.Random(seed)
    sample_ok = True
    half = samples // 2
    for trial in range(samples):
        values = {
            "alpha": QQ.scalar(rng.randrange(-5, 6)),
            "beta": QQ.scalar(rng.randrange(-5, 6)),
            "a": QQ.zero,
            "b": QQ.zero,
            "c": QQ.zero,
            "d": QQ.zero,
        }
        if trial < half:
            # a=b=c=d=0: the minors must share the factor xbar0
            special = [_specialize(m.poly, values, QQ) for m in minors]
            factor = common_linear_factor(
                [Form(s, 2) for s in special]
            )
            xb_num = _specialize(xb, values, QQ)
            target = Form(xb_num, 1).normalized()
            if factor is None or factor.poly != target.poly:
                sample_ok = False
                break
        else:
            # nonzero (c, d): no common linear factor
            for name in ("a", "b"):
                values[name] = QQ.scalar(rng.randrange(-5, 6))
            while not (values["c"] or values["d"]):
                values["c"] = QQ.scalar(rng.randrange(-5, 6))
                values["d"] = QQ.scalar(rng.randrange(-5, 6))
            special = [_specialize(m.poly, values, QQ) for m in minors]
            factor = common_linear_factor([Form(s, 2) for s in special])
            if factor is not None:
                sample_ok = False
                break
    ok = symbolic_ok and sample_ok
    return IdentityReport(
        "chart-minors",
        PASS if ok else FAIL,
        computed={
            "signs": signs,
            "minors": [m.serialize() for m in minors],
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


def _specialize(poly, values, base):
    """Evaluate the parameter coefficients of a ParamRing polynomial at a
    dict name -> base scalar, on raw values."""
    point = [base.unbox(values[n]) for n in poly.domain.names]
    return MultiPoly.from_raw(base, {e: evaluate_raw(c.raw, point)
                                     for e, c in poly.raw.items()})


def verify_fibre_determinant(seed):
    """det of the w-shifted fibre matrix equals x0*(x0*q0 + x1*q1 + x2*q2)."""
    domain = GF(101)
    rng = random.Random(seed)
    x0, x1, x2 = _vars(domain)
    q0 = random_form(domain, 2, rng).poly
    q1 = _random_form_in(domain, rng, (1, 2), 2)
    q2 = _random_form_in(domain, rng, (2,), 2)
    gamma = domain.scalar(rng.randrange(domain.p))
    delta = domain.scalar(rng.randrange(domain.p))
    w = x1 * gamma + x2 * delta
    zero = MultiPoly.zero(domain)
    m = [
        [q0, q1 - x2 * w, q2 + x1 * w],
        [-x2, zero, x0],
        [x1, -x0, zero],
    ]
    computed = det(m)
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
    return MultiPoly.from_raw(domain, {
        e: rng.randrange(domain.p)
        for e in monomials_of_degree(degree)
        if not any(e[i] for i in range(3) if i not in variables)
    })


def verify_tangent_quartic(seed, domain=None):
    """The first-order quartic of a boundary deformation, three ways.

    For A the bordered zero-determinant matrix with parameter w and B a
    random direction, checks that the t-linear coefficient of det(A + tB)
    equals the sum of row-replaced determinants, equals
    x0*sum(x_i b_0i) - w*(x1*sum(x_i b_1i) + x2*sum(x_i b_2i)), and
    vanishes at p = Z(x0, w).
    """
    domain = domain or GF(101)
    rng = random.Random(seed)
    x0, x1, x2 = _vars(domain)
    pick = lambda: random_form(domain, 0, rng).poly.coefficient((0, 0, 0))
    gamma, delta = pick(), pick()
    while not (gamma or delta):
        gamma, delta = pick(), pick()
    w = x1 * gamma + x2 * delta
    a = boundary_matrix(Form(x0, 1), Form(w, 1))
    b = random_matrix("res0", domain, rng=rng)
    row_sum = tangent_quartic(a, b)
    # t-linear coefficient of det(A + tB) over the parameter ring in t
    ring = ParamRing(domain, ("t",))
    t_linear = _coefficient_of(det(_lifted_pencil(a, b, ring)), ring, "t", 1,
                               domain)
    closed = x0 * (
        x0 * b[0, 0].poly + x1 * b[0, 1].poly + x2 * b[0, 2].poly
    ) - w * (
        x1 * (x0 * b[1, 0].poly + x1 * b[1, 1].poly + x2 * b[1, 2].poly)
        + x2 * (x0 * b[2, 0].poly + x1 * b[2, 1].poly + x2 * b[2, 2].poly)
    )
    p = (domain.zero, delta, -gamma)
    checks = {
        "t_linear_equals_row_sum": t_linear == row_sum.poly,
        "equals_closed_form": row_sum.poly == closed,
        "vanishes_at_p": not row_sum.poly.evaluate(p) if row_sum else True,
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


def _lifted_pencil(a, b, ring):
    """The 3x3 grid A + tB over the parameter ring in t, each coefficient
    of B placed at t^1."""
    t = tuple(int(n == "t") for n in ring.names)
    return [[_lift(a[i, j].poly, ring) + _lift(b[i, j].poly, ring, t)
             for j in range(3)] for i in range(3)]


def _lift(poly, ring, at=None):
    """poly over the base field, as a polynomial over the parameter ring,
    each coefficient placed at the parameter monomial of exponent at (1 by
    default)."""
    at = at or (0,) * len(ring.names)
    return MultiPoly.from_raw(ring, {
        e: ParamScalar.from_raw(ring, {at: c}) for e, c in poly.raw.items()})


def _coefficient_of(poly, ring, name, power, base):
    """The coefficient of name^power, as a polynomial over the base."""
    key = tuple(power if n == name else 0 for n in ring.names)
    return MultiPoly.from_raw(base, {e: c.raw.get(key, 0)
                                     for e, c in poly.raw.items()})


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
    computed = poincare_M()
    printed = PoincarePoly(PRINTED_MODULI_COEFFICIENTS)
    diff = computed - printed
    expected_diff = PoincarePoly([0] * 6 + [16])
    palindromic = is_palindromic(computed, 17)
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
