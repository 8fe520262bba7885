"""The four benchmark workloads: input generators, ops and their checks.

Every input is drawn from a ``random.Random`` seeded by (workload, seed,
op index), so the same seed gives the same inputs in every run and the
first ops of a run give the same outputs.  An op returns the serialized
outputs that go into the run's digest and raises ``CheckFailed`` when a
result is wrong.  The package is used only through its public API.
"""

import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

from quarticmoduli import betti, degeneration, gcd, matrices, strata, verify
from quarticmoduli.field import GF, QQ
from quarticmoduli.matrices import FormMatrix, GradedAutomorphism
from quarticmoduli.poly import Form, MultiPoly, monomials_of_degree

GF101 = GF(101)
# p = 2^31 - 1: above the root-scan limit of gcd._rational_roots_gf
GF_BIG = GF(2**31 - 1)
RES0 = ((3, 2, 2), (1, 1, 1))
RES1 = ((3, 3), (2, 0))
DEFORM = ((3, 3, 2, 2, 2), (2, 1, 1, 1))
ALL_LABELS = (
    strata.M00, strata.M01, strata.M10, strata.M11, strata.BOUNDARY,
    strata.NOT_STABLE, strata.INVALID,
)
# the documented refusal of root finding above p = 10^6
KNOWN_REFUSAL = "root scan limited to p <= 10^6"


class CheckFailed(Exception):
    """An op produced a result that its check rejects."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def op_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def child_env(root):
    """The environment of a child that imports the package from root/src."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ---- small helpers over the public API ---------------------------------


def _x(domain):
    return [MultiPoly.variable(domain, i) for i in range(3)]


def _pick(domain, rng, nonzero=False, span=3):
    """A random scalar: small integers over QQ, uniform over GF(p)."""
    while True:
        if domain == QQ:
            value = QQ.scalar(rng.randrange(-span, span + 1))
        else:
            value = domain.scalar(rng.randrange(domain.p))
        if value or not nonzero:
            return value


def _form(domain, degree, rng, span=3):
    terms = {}
    for mono in monomials_of_degree(degree):
        c = _pick(domain, rng, span=span)
        if c:
            terms[mono] = c
    return Form(MultiPoly(domain, terms), degree)


def _nonzero_form(domain, degree, rng):
    while True:
        f = _form(domain, degree, rng)
        if f:
            return f


def _independent_lines(domain, rng):
    while True:
        z1 = _nonzero_form(domain, 1, rng)
        z2 = _nonzero_form(domain, 1, rng)
        try:
            gcd.line_intersection(z1, z2)
        except ValueError:
            continue
        return z1, z2


def _automorphism(degrees, domain, rng):
    """A random graded automorphism; built here over QQ, where the
    package's sampler (prime fields only) does not apply."""
    if domain != QQ:
        return matrices.random_graded_automorphism(degrees, domain, rng)
    n = len(degrees)
    while True:
        entries = [
            [
                _form(domain, degrees[i] - degrees[j], rng)
                if degrees[i] >= degrees[j] else Form.zero(domain, 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        try:
            return GradedAutomorphism(FormMatrix(degrees, degrees, entries))
        except matrices.DegreeError:
            continue


def _same_point(p, q):
    """Projective equality of two points."""
    return all(p[i] * q[j] == p[j] * q[i] for i in range(3) for j in range(3))


def _point_text(point):
    pivot = max(i for i in range(3) if point[i])
    inv = point[pivot].inverse()
    return "(" + ", ".join((c * inv).as_text() for c in point) + ")"


def _normalized(form):
    return form.poly.normalized()


# ---- rare-label constructors ---------------------------------------------
# Each returns (matrix, intended label, check) with check(report) raising
# CheckFailed when the report misses the construction's invariant.


def _xbar0(domain, rng):
    x0, x1, x2 = _x(domain)
    return Form(x0 + x1 * _pick(domain, rng) + x2 * _pick(domain, rng), 1)


def make_m01(domain, rng):
    """Minors with a common line: the linear block [[-x2, 0, xbar0],
    [x1, -xbar0, 0]] has minors xbar0*(xbar0, x1, x2), so Z is collinear.
    A nonzero x0^2 coefficient in q0 keeps the determinant nonzero."""
    x0, x1, x2 = _x(domain)
    xb = _xbar0(domain, rng)
    terms = dict(_form(domain, 2, rng).poly.terms)
    terms[(2, 0, 0)] = _pick(domain, rng, nonzero=True)
    q0 = Form(MultiPoly(domain, terms), 2)
    m = FormMatrix(*RES0, [
        [q0, _form(domain, 2, rng), _form(domain, 2, rng)],
        [Form(-x2, 1), Form.zero(domain, 1), xb],
        [Form(x1, 1), Form(-xb.poly, 1), Form.zero(domain, 1)],
    ])
    line = _normalized(xb)

    def accept(report):
        check(report.line is not None and report.line.poly == line,
              "M01 line is not xbar0")
        check(report.quartic.poly.try_exact_div(line) is not None,
              "M01 line does not divide the quartic")
    return m, strata.M01, accept


def make_m11(domain, rng):
    """A rational line through the point divides the determinant:
    with c1 = a*K + z1*P and c2 = -b*K + z2*P the determinant is
    -(b*z1 + a*z2)*K, and b*z1 + a*z2 passes through Z(z1, z2)."""
    z1, z2 = _independent_lines(domain, rng)
    a, b = _pick(domain, rng), _pick(domain, rng)
    while not (a or b):
        a, b = _pick(domain, rng), _pick(domain, rng)
    k = _nonzero_form(domain, 3, rng)
    p = _form(domain, 2, rng)
    c1 = Form(k.poly * a + z1.poly * p.poly, 3)
    c2 = Form(k.poly * (-b) + z2.poly * p.poly, 3)
    m = FormMatrix(*RES1, [[z1, c1], [z2, c2]])
    line = (z1.poly * b + z2.poly * a).normalized()
    point = gcd.line_intersection(z1, z2)

    def accept(report):
        check(_same_point(report.point, point), "M11 point moved")
        check(report.quartic.poly.try_exact_div(line) is not None,
              "constructed line does not divide the quartic")
        if report.line is not None:
            check(not report.line.evaluate(report.point),
                  "M11 line misses the point")
            check(report.quartic.poly.try_exact_div(report.line.poly)
                  is not None, "M11 line does not divide the quartic")
    return m, strata.M11, accept


def make_boundary(domain, rng):
    """The [0, -x2*w, x1*w] normal form over the Kronecker block of
    xbar0; its determinant vanishes and its minors share xbar0."""
    x0, x1, x2 = _x(domain)
    xb = _xbar0(domain, rng)
    gamma, delta = _pick(domain, rng), _pick(domain, rng, nonzero=True)
    w = x1 * gamma + x2 * delta
    m = FormMatrix(*RES0, [
        [Form.zero(domain, 2), Form(-x2 * w, 2), Form(x1 * w, 2)],
        [Form(-x2, 1), Form.zero(domain, 1), xb],
        [Form(x1, 1), Form(-xb.poly, 1), Form.zero(domain, 1)],
    ])
    line = _normalized(xb)

    def accept(report):
        check(report.line is not None and report.line.poly == line,
              "boundary line is not xbar0")
    return m, strata.BOUNDARY, accept


def make_not_stable(domain, rng):
    """A rank-deficient Kronecker block: a zero third column leaves one
    nonzero 2x2 minor."""
    z = Form.zero(domain, 1)
    m = FormMatrix(*RES0, [
        [_form(domain, 2, rng), _form(domain, 2, rng), _form(domain, 2, rng)],
        [_form(domain, 1, rng), _form(domain, 1, rng), z],
        [_form(domain, 1, rng), _form(domain, 1, rng), z],
    ])
    return m, strata.NOT_STABLE, lambda report: None


def make_invalid(domain, rng):
    """A res1 matrix with zero determinant: the cubic column is the
    point's column times one quadric."""
    z1, z2 = _independent_lines(domain, rng)
    p = _nonzero_form(domain, 2, rng)
    m = FormMatrix(*RES1, [[z1, z1 * p], [z2, z2 * p]])
    point = gcd.line_intersection(z1, z2)

    def accept(report):
        check(_same_point(report.point, point), "invalid-case point moved")
    return m, strata.INVALID, accept


RARE_CASES = (
    ("M01", make_m01, QQ),
    ("M11", make_m11, QQ),
    ("M11@2^31-1", make_m11, GF_BIG),
    ("boundary", make_boundary, QQ),
    ("not-stable", make_not_stable, QQ),
    ("invalid", make_invalid, QQ),
)


def rare_case(index, rng):
    """The (name, matrix, g, h, label, check) of the index-th rare case."""
    name, make, domain = RARE_CASES[index % len(RARE_CASES)]
    m, label, accept = make(domain, rng)
    g = _automorphism(m.src_degrees, domain, rng)
    h = _automorphism(m.tgt_degrees, domain, rng)
    return name, m, g, h, label, accept


def classify_rare(case):
    """Classify g*m*h of a rare case; returns (output text, refused)."""
    name, m, g, h, label, accept = case
    moved = matrices.act(g, m, h)
    classify = strata.classify_res1 if m.src_degrees == RES1[0] \
        else strata.classify_res0
    try:
        report = classify(moved)
    except NotImplementedError as exc:
        # the known refusal of root finding at p > 10^6 (ROADMAP item 2)
        check(KNOWN_REFUSAL in str(exc) and moved.domain.p > 10**6,
              f"{name}: unexpected NotImplementedError: {exc}")
        return f"{name}: refused", True
    check(report.label == label,
          f"{name}: label {report.label}, intended {label}")
    accept(report)
    return f"{name}: {report.label}", False


# ---- workloads -------------------------------------------------------------


def _random_gf101_matrices(rng, n=8):
    """Random res0 and res1 matrices over GF(101), for kernel timings."""
    return ([matrices.random_matrix("res0", GF101, rng=rng) for _ in range(n)],
            [matrices.random_matrix("res1", GF101, rng=rng) for _ in range(n)])


class Workload:
    """One traffic mix.  ``make_input(i)`` draws the i-th op's input and
    ``run_op(input)`` runs and checks the op, returning its outputs."""

    name = ""
    digest_ops = 12  # the first ops whose outputs make the digest
    count_ops = 6  # ops replayed under the profiler for exact counts
    params = {}

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.refusals = 0

    def rng(self, index):
        # negative indexes (the warm-up op, kernel data) draw the same input
        # for every seed, so set-up time and kernel times do not vary with it
        return op_rng(self.name, self.seed if index >= 0 else "any", index)

    def op_name(self, inp):
        return "op"

    def close(self):
        pass


class SampleGF101(Workload):
    """Random res0 and res1 matrices over GF(101), classified before and
    after a random graded automorphism pair; the labels must agree."""

    name = "sample-gf101"
    digest_ops = 16
    count_ops = 8

    def make_input(self, index):
        rng = self.rng(index)
        a = matrices.random_matrix("res0", GF101, rng=rng)
        b = matrices.random_matrix("res1", GF101, rng=rng)
        return a, b, rng.getrandbits(64)

    def run_op(self, inp):
        a, b, act_seed = inp
        rng = random.Random(act_seed)
        out = []
        for m, classify in ((a, strata.classify_res0),
                            (b, strata.classify_res1)):
            base = classify(m)
            g = matrices.random_graded_automorphism(m.src_degrees, GF101, rng)
            h = matrices.random_graded_automorphism(m.tgt_degrees, GF101, rng)
            moved = classify(matrices.act(g, m, h))
            check(moved.label == base.label,
                  f"label changed {base.label} -> {moved.label}")
            if base.quartic is not None:
                check(_normalized(moved.quartic) == _normalized(base.quartic),
                      "quartic changed under the action")
            if base.point is not None:
                check(_same_point(moved.point, base.point),
                      "point changed under the action")
            out.append(base.label)
            if base.quartic is not None:
                out.append(_normalized(base.quartic).serialize())
            if base.point is not None:
                out.append(_point_text(base.point))
        return out

    def kernel_data(self):
        return _random_gf101_matrices(self.rng(-100))


# ---- boundary-qq ------------------------------------------------------------


def _poly_text(rng, monos):
    parts = []
    for mono in monos:
        c = rng.randrange(-3, 4)
        if c:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def chart_point(rng):
    """A rational blow-up chart point, drawn like acceptance criterion 5.

    Draws that break the chart contract are redrawn, and so are draws with
    a = b = c = d = 0: the limit quartic is xbar0*(...) - w*cubic with the
    cubic c*x1^3 + a*x1^2*x2 + b*x1*x2^2 + d*x2^3, and a nonzero cubic
    keeps both the limit and the twisted-ideal resolution defined.
    """
    while True:
        chart = rng.choice(["a", "c", "d", "q0[0,2,0]"])
        coeffs = {k: rng.randrange(-2, 3) for k in "abcd"}
        q0 = _poly_text(rng, ["x0^2", "x0*x1", "x0*x2", "x1^2", "x1*x2",
                              "x2^2"])
        if chart in coeffs:
            coeffs[chart] = 1
        else:
            q0 = (q0 + " + x1^2") if q0 != "0" else "x1^2"
        q1 = _poly_text(rng, ["x1^2", "x1*x2", "x2^2"])
        q2 = _poly_text(rng, ["x2^2"])
        if not any(coeffs.values()):
            continue
        try:
            return degeneration.make_blowup_chart_point(
                domain=QQ,
                alpha=Fraction(rng.randrange(-2, 3)),
                beta=Fraction(rng.randrange(-2, 3)),
                gamma=Fraction(rng.randrange(-2, 3)),
                delta=Fraction(rng.choice([1, 2, -1])),
                q0_text=q0,
                q1_text=q1,
                q2_text=q2,
                ab_cd=tuple(Fraction(coeffs[k]) for k in "abcd"),
                chart=chart,
                t=Fraction(1),
            )
        except degeneration.ChartError:
            continue


def _split_by_xbar0(poly, xbar0):
    """(p0, p1, p2) with poly = xbar0*p0 + x1*p1 + x2*p2.

    xbar0 = x0 + alpha*x1 + beta*x2, so x0 = xbar0 - alpha*x1 - beta*x2.
    """
    domain = poly.domain
    alpha = xbar0.terms.get((0, 1, 0), domain.zero)
    beta = xbar0.terms.get((0, 0, 1), domain.zero)
    parts = [MultiPoly.zero(domain) for _ in range(3)]
    for (e0, e1, e2), c in poly.terms.items():
        if e0:
            rest = MultiPoly.monomial(domain, (e0 - 1, e1, e2), c)
            parts[0] = parts[0] + rest
            parts[1] = parts[1] - rest * alpha
            parts[2] = parts[2] - rest * beta
        elif e1:
            parts[1] = parts[1] + MultiPoly.monomial(domain, (0, e1 - 1, e2), c)
        else:
            parts[2] = parts[2] + MultiPoly.monomial(domain, (0, 0, e2 - 1), c)
    return parts


def deformation_matrix(xbar0, w, g, h):
    """The 5x4 presentation whose Fitting support is xbar0*h - w*g."""
    domain = xbar0.domain
    x0, x1, x2 = _x(domain)
    p = _split_by_xbar0(g.poly, xbar0.poly)
    q = _split_by_xbar0(h.poly, xbar0.poly)
    zero0, zero1 = Form.zero(domain, 0), Form.zero(domain, 1)
    return FormMatrix(*DEFORM, [
        [xbar0] + [Form(f, 2) for f in p],
        [w] + [Form(f, 2) for f in q],
        [zero0, Form(-x2, 1), zero1, xbar0],
        [zero0, Form(x1, 1), Form(-xbar0.poly, 1), zero1],
        [zero0, zero1, Form(x2, 1), Form(-x1, 1)],
    ])


def limit_cubic(params):
    """The cubic g = c*x1^3 + a*x1^2*x2 + b*x1*x2^2 + d*x2^3 of the limit
    quartic f = xbar0*h - w*g of a chart point."""
    x1, x2 = _x(QQ)[1:]
    return Form(x1 ** 3 * params["c"] + x1 ** 2 * x2 * params["a"]
                + x1 * x2 ** 2 * params["b"] + x2 ** 3 * params["d"], 3)


def t_linear_coefficient(pt):
    """[t^1] det(A + tB) from the determinants at t = 1, 2, 3.

    det A = 0, so det(A + tB) = c1*t + c2*t^2 + c3*t^3 and
    c1 = 3*d(1) - 3/2*d(2) + 1/3*d(3).
    """
    d1, d2, d3 = (pt.total(Fraction(t)).determinant().poly for t in (1, 2, 3))
    return d1 * 3 - d2 * Fraction(3, 2) + d3 * Fraction(1, 3), d1


class BoundaryQQ(Workload):
    """Rational boundary degenerations: limit, tangent quartic, twisted
    ideal resolution and Fitting support of one chart point, plus one
    constructed rare-label matrix per op."""

    name = "boundary-qq"
    digest_ops = 12
    count_ops = len(RARE_CASES)

    def make_input(self, index):
        rng = self.rng(index)
        return chart_point(rng), rare_case(index, rng)

    def run_op(self, inp):
        pt, case = inp
        p = pt.params
        xbar0 = p["xbar0"]
        quartic, point = degeneration.family_limit(pt)
        tangent = degeneration.tangent_quartic(pt.a, pt.b)
        linear, det_at_1 = t_linear_coefficient(pt)
        check(linear == tangent.poly, "t-linear coefficient != tangent quartic")
        check(not tangent.evaluate(point), "tangent quartic nonzero at p")
        check(_normalized(tangent) == _normalized(quartic),
              "limit quartic not proportional to the tangent quartic")
        base = strata.classify_res0(pt.a)
        check(base.label == strata.BOUNDARY, f"A classified {base.label}")
        moved = strata.classify_res0(pt.total())
        allowed = (strata.BOUNDARY,) if not det_at_1 else (strata.M00,
                                                            strata.M01)
        check(moved.label in allowed + (strata.NOT_STABLE,),
              f"A + tB classified {moved.label}")
        if moved.quartic is not None:
            check(moved.quartic.poly == det_at_1, "quartic of A + tB != det")
        cubic = limit_cubic(p)
        res = degeneration.build_twisted_ideal_resolution(quartic, xbar0, cubic)
        check(xbar0.poly * res.h.poly - res.w.poly * cubic.poly == quartic.poly,
              "l*h - w*g != f")
        report = strata.classify_res1(res.matrix())
        if res.semistable:
            check(report.label in (strata.M10, strata.M11),
                  f"resolution classified {report.label}")
            check(report.quartic.poly == quartic.poly,
                  "resolution quartic != f")
        # xbar0*h - w*g = f was checked above
        support = degeneration.fitting_support(
            deformation_matrix(xbar0, res.w, cubic, res.h))
        check(support.poly == quartic.poly.normalized(),
              "Fitting support != xbar0*h - w*g")
        rare, refused = classify_rare(case)
        self.refusals += refused
        return [
            _normalized(quartic).serialize(), _point_text(point),
            tangent.serialize(), base.label, moved.label,
            res.w.serialize(), res.h.serialize(), report.label,
            support.serialize(), rare,
        ]

    def kernel_data(self):
        res0, res1 = [], []
        for i in range(8):
            pt = chart_point(self.rng(-100 - i))
            res0.append(pt.total())
            quartic, _ = degeneration.family_limit(pt)
            res1.append(degeneration.build_twisted_ideal_resolution(
                quartic, pt.params["xbar0"], limit_cubic(pt.params)).matrix())
        return res0, res1


# ---- replay -----------------------------------------------------------------

CHART_SAMPLES = 6


class Replay(Workload):
    """The identity suite at a fresh seed per op."""

    name = "replay"
    digest_ops = 8
    count_ops = 3
    params = {"chart_minors_samples": CHART_SAMPLES}

    def make_input(self, index):
        rng = self.rng(index)
        alpha = QQ.scalar(Fraction(_pick(QQ, rng, nonzero=True, span=9).value,
                                   rng.randrange(1, 10)))
        return alpha, rng.getrandbits(32)

    def run_op(self, inp):
        alpha, seed = inp
        reports = [
            verify.verify_transition(alpha),
            verify.verify_cocycle(seed),
            verify.verify_reduction_chain(seed),
            verify.verify_chart_minors(seed, samples=CHART_SAMPLES),
            verify.verify_fibre_determinant(seed),
            verify.verify_tangent_quartic(seed, domain=QQ),
            verify.verify_tangent_quartic(seed, domain=GF101),
            verify.verify_poincare_corollary(),
        ]
        out = []
        for r in reports:
            check(r.passed, f"{r.name} failed: {r.note}")
            out.append(json.dumps(r.to_json_dict(), sort_keys=True))
        return out

    def kernel_data(self):
        # the random res0 directions of the QQ tangent-quartic identity
        rng = self.rng(-100)
        res0 = [FormMatrix(*RES0, [[_form(QQ, s - t, rng, span=9)
                                    for t in RES0[1]] for s in RES0[0]])
                for _ in range(8)]
        res1 = [FormMatrix(*RES1, [[z1, _form(QQ, 3, rng, span=9)],
                                   [z2, _form(QQ, 3, rng, span=9)]])
                for z1, z2 in (_independent_lines(QQ, rng) for _ in range(8))]
        return res0, res1


# ---- cli-oneshot -------------------------------------------------------------

CLI_VERIFY_NAMES = (
    "transition", "cocycle", "reduction-chain", "fibre-determinant",
    "tangent-quartic", "poincare-corollary",
)
CLI_CYCLE = (
    "classify-m00", "classify-m01", "classify-boundary", "classify-not-stable",
    "classify-m10", "classify-m11", "classify-invalid", "limit", "betti",
    "verify", "sample-res0", "sample-res1",
)
SAMPLE_COUNT = 4


class CliOneshot(Workload):
    """One fresh ``python -m quarticmoduli.cli ... --json`` per op, one
    child at a time, checked by exit code and JSON."""

    name = "cli-oneshot"
    digest_ops = len(CLI_CYCLE)
    count_ops = 0
    params = {"sample_count": SAMPLE_COUNT, "cycle": list(CLI_CYCLE)}
    child_timeout_s = 60

    def __init__(self, seed, root, scratch):
        super().__init__(seed, root)
        os.makedirs(scratch, exist_ok=True)
        self.scratch = scratch
        self.env = child_env(root)
        self.max_child_rss_kib = 0
        self.betti_m = list(betti.poincare_M().coefficients)

    def op_name(self, inp):
        return "cli." + inp["args"][0]

    def _write(self, name, data):
        path = os.path.join(self.scratch, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def make_input(self, index):
        rng = self.rng(index)
        kind = CLI_CYCLE[index % len(CLI_CYCLE)]
        seed = rng.randrange(10**6)
        if kind.startswith("classify-"):
            if kind in ("classify-m00", "classify-m10"):
                shape = "res0" if kind == "classify-m00" else "res1"
                m = matrices.random_matrix(shape, GF101, rng=rng)
                classify = strata.classify_res0 if shape == "res0" \
                    else strata.classify_res1
                label, field = classify(m).label, "101"
            else:
                make = {
                    "classify-m01": make_m01,
                    "classify-boundary": make_boundary,
                    "classify-not-stable": make_not_stable,
                    "classify-m11": make_m11,
                    "classify-invalid": make_invalid,
                }[kind]
                m, label, _ = make(QQ, rng)
                field = "q"
            path = self._write("matrix.json", m.to_json_dict())
            code = 2 if label in (strata.INVALID, strata.NOT_STABLE) else 0
            return {"args": ["classify", path, "--field", field],
                    "code": code, "expect": {"label": label}}
        if kind == "limit":
            pt = chart_point(rng)
            quartic, point = degeneration.family_limit(pt)
            t_values = [Fraction(rng.randrange(1, 5), rng.randrange(1, 4))]
            path = self._write("family.json", pt.to_json_dict(t_values))
            return {"args": ["limit", path], "code": 0, "expect": {
                "limit": {"quartic": quartic.serialize(),
                          "point": [str(c) for c in point]}}}
        if kind == "betti":
            return {"args": ["betti", "M"], "code": 0,
                    "expect": {"coefficients": self.betti_m}}
        if kind == "verify":
            name = CLI_VERIFY_NAMES[(index // len(CLI_CYCLE))
                                    % len(CLI_VERIFY_NAMES)]
            return {"args": ["verify", name, "--seed", str(seed)], "code": 0,
                    "expect": {"all_passed": True}}
        shape = kind.split("-")[1]
        return {"args": ["sample", shape, "--field", "101", "--count",
                         str(SAMPLE_COUNT), "--seed", str(seed)],
                "code": 0, "expect": {"count": SAMPLE_COUNT}}

    def run_child(self, args):
        """Run one CLI child to completion; returns (exit code, stdout)."""
        cmd = [sys.executable, "-m", "quarticmoduli.cli"] + args + ["--json"]
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(self.child_timeout_s, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            # reap here to read the child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            watchdog.cancel()
        self.max_child_rss_kib = max(self.max_child_rss_kib, usage.ru_maxrss)
        return proc.returncode, out.decode()

    def run_op(self, inp):
        code, out = self.run_child(inp["args"])
        check(code == inp["code"],
              f"{inp['args'][0]}: exit {code}, expected {inp['code']}: "
              f"{out.strip()[-200:]}")
        try:
            data = json.loads(out)
        except ValueError as exc:
            raise CheckFailed(f"{inp['args'][0]}: no JSON output: {exc}")
        for key, want in inp["expect"].items():
            check(data.get(key) == want,
                  f"{inp['args'][0]}: {key} = {data.get(key)!r}, want {want!r}")
        if inp["args"][0] == "sample":
            hist = data["histogram"]
            check(sum(hist.values()) == SAMPLE_COUNT and set(hist) <= set(
                ALL_LABELS), f"bad sample histogram {hist}")
        return [json.dumps(data, sort_keys=True)]

    def kernel_data(self):
        return _random_gf101_matrices(self.rng(-100))

    def close(self):
        for name in ("matrix.json", "family.json"):
            path = os.path.join(self.scratch, name)
            if os.path.exists(path):
                os.remove(path)
        try:
            os.rmdir(self.scratch)
        except OSError:
            pass


WORKLOADS = {
    w.name: w for w in (SampleGF101, BoundaryQQ, Replay, CliOneshot)
}
