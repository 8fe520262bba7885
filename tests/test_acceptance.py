"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single pass/fail
line; the assertions carry the details.
"""

import random
import sys
import time
from fractions import Fraction as F

from quarticmoduli.betti import (
    MODULI_COEFFICIENTS,
    PoincarePoly,
    is_palindromic,
    poincare_M,
    poincare_open_stratum_closure,
    poincare_projective,
)
from quarticmoduli.degeneration import (
    ChartError,
    FlagDatum,
    build_twisted_ideal_resolution,
    family_limit,
    fitting_support,
    flag_limit,
    make_blowup_chart_point,
    tangent_quartic,
)
from quarticmoduli.field import GF, QQ
from quarticmoduli.gcd import binary_roots
from quarticmoduli.matrices import (
    FormMatrix,
    act,
    random_form,
    random_graded_automorphism,
    random_matrix,
)
from quarticmoduli.poly import BinaryForm, Form, MultiPoly, parse_form
from quarticmoduli.strata import classify_res0
from quarticmoduli.verify import (
    PASS,
    verify_chart_minors,
    verify_cocycle,
    verify_fibre_determinant,
    verify_reduction_chain,
    verify_tangent_quartic,
    verify_transition,
)

PRINTED = (1, 2, 6, 10, 14, 15, 0, 16, 16, 16, 16, 16, 15, 14, 10, 6, 2, 1)


def report(number, name, ok):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.stderr)
    return ok


def test_criterion_1_poincare_pipeline():
    start = time.monotonic()
    m = poincare_M()
    elapsed = time.monotonic() - start
    failures = []
    for i in range(18):
        computed = m.coefficients[i]
        if i == 6:
            # PRINTED drops the q^6 term; palindromy of degree 17 forces
            # [q^6] = [q^11], and PRINTED[11] is 16.
            if computed != 16:
                failures.append(f"q^6 coefficient {computed} != 16")
        elif computed != PRINTED[i]:
            failures.append(f"q^{i} coefficient {computed} != {PRINTED[i]}")
    if not is_palindromic(m, 17):
        failures.append("not palindromic of degree 17")
    # The coefficients checked above sum to 192, so a printed 170 cannot hold.
    # KKV: genus-0 GV invariant of local P^2, degree 4, is -192 = (-1)^17 e(M).
    euler = m.evaluate(1)
    if euler != 192:
        failures.append(f"value at q=1 is {euler}, required 192")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    ok = report(1, "Poincare pipeline", not failures)
    assert ok, "; ".join(failures)


def test_criterion_2_intermediate_betti():
    h = PoincarePoly([1, 2, 5, 6, 5, 2, 1])
    n = poincare_open_stratum_closure()
    p2 = poincare_projective(2)
    p3 = poincare_projective(3)
    failures = []
    if n != h - p2 * p3 + p2:
        failures.append("P(N) does not match its defining formula")
    if not is_palindromic(n, 6):
        failures.append("P(N) is not palindromic of degree 6")
    ok = report(2, "intermediate Betti values", not failures)
    assert ok, "; ".join(failures)


def test_criterion_3_identity_suite():
    start = time.monotonic()
    failures = []
    if verify_transition(QQ.scalar(2)).status != PASS:
        failures.append("symbolic-style transition check failed")
    dom = GF(101)
    rng = random.Random(0)
    for _ in range(50):
        alpha = dom.scalar(rng.randrange(1, 101))
        if verify_transition(alpha).status != PASS:
            failures.append(f"transition failed at alpha={alpha}")
            break
    for seed in range(100):
        if verify_cocycle(seed).status != PASS:
            failures.append(f"cocycle failed at seed {seed}")
            break
    if verify_chart_minors().status != PASS:
        failures.append("chart minors failed")
    for seed in range(100):
        if verify_fibre_determinant(seed).status != PASS:
            failures.append(f"fibre determinant failed at seed {seed}")
            break
    for seed in range(100):
        if verify_tangent_quartic(seed, domain=QQ).status != PASS:
            failures.append(f"tangent quartic over QQ failed at seed {seed}")
            break
    for seed in range(100):
        if verify_tangent_quartic(seed, domain=GF(101)).status != PASS:
            failures.append(f"tangent quartic over F_101 failed at seed {seed}")
            break
    for seed in range(20):
        if verify_reduction_chain(seed).status != PASS:
            failures.append(f"reduction chain failed at seed {seed}")
            break
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    ok = report(3, "identity suite", not failures)
    assert ok, "; ".join(failures)


def test_criterion_4_classification_invariance():
    start = time.monotonic()
    dom = GF(101)
    rng = random.Random(42)
    failures = []
    for i in range(500):
        m = random_matrix("res0", dom, rng=rng)
        base = classify_res0(m).label
        for _ in range(3):
            g = random_graded_automorphism((3, 2, 2), dom, rng)
            h = random_graded_automorphism((1, 1, 1), dom, rng)
            label = classify_res0(act(g, m, h)).label
            if label != base:
                failures.append(
                    f"instance {i}: label changed {base} -> {label}"
                )
                break
        if failures:
            break
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    ok = report(4, "classification invariance", not failures)
    assert ok, "; ".join(failures)


def _poly_text(rng, monos):
    parts = []
    for mono in monos:
        c = rng.randrange(-3, 4)
        if not c:
            continue
        parts.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _random_chart_point(rng):
    charts = ["a", "c", "d", "q0[0,2,0]"]
    chart = charts[rng.randrange(4)]
    coeffs = {
        "a": rng.randrange(-2, 3),
        "b": rng.randrange(-2, 3),
        "c": rng.randrange(-2, 3),
        "d": rng.randrange(-2, 3),
    }
    q0 = _poly_text(
        rng, ["x0^2", "x0*x1", "x0*x2", "x1^2", "x1*x2", "x2^2"]
    )
    if chart in coeffs:
        coeffs[chart] = 1
    else:
        q0 = (q0 + " + x1^2") if q0 != "0" else "x1^2"
    q1 = _poly_text(rng, ["x1^2", "x1*x2", "x2^2"])
    q2 = _poly_text(rng, ["x2^2"])
    return make_blowup_chart_point(
        domain=QQ,
        alpha=F(rng.randrange(-2, 3)),
        beta=F(rng.randrange(-2, 3)),
        gamma=F(rng.randrange(-2, 3)),
        delta=F(rng.choice([1, 2, -1])),
        q0_text=q0,
        q1_text=q1,
        q2_text=q2,
        ab_cd=tuple(F(coeffs[k]) for k in "abcd"),
        chart=chart,
        t=F(1),
    )


def _t_linear_coefficient(pt):
    """Interpolate the t-linear coefficient of det(A + tB), cubic in t."""
    dets = [classify_res0(pt.total(F(t))).quartic.poly for t in (1, 2, 3)]
    rows = [[QQ.scalar(t ** k) for k in (1, 2, 3)] for t in (1, 2, 3)]
    rhs = list(dets)
    for col in range(3):
        piv = next(i for i in range(col, 3) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = rows[col][col].inverse()
        rows[col] = [v * inv for v in rows[col]]
        rhs[col] = rhs[col] * inv
        for i in range(3):
            if i != col and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
                rhs[i] = rhs[i] - rhs[col] * factor
    return rhs[0]


def test_criterion_5_degeneration_coherence():
    rng = random.Random(2024)
    failures = []
    built = 0
    while built < 100 and not failures:
        try:
            pt = _random_chart_point(rng)
            quartic, point = family_limit(pt)
        except ChartError:
            continue  # degenerate draw; take the next seed-driven sample
        built += 1
        p = pt.params
        x1 = MultiPoly.variable(QQ, 1)
        x2 = MultiPoly.variable(QQ, 2)
        closed = p["xbar0"].poly * (
            p["xbar0"].poly * p["q0"].poly
            + x1 * p["q1"].poly
            + x2 * p["q2"].poly
        ) - p["w"].poly * (
            x1 ** 3 * p["c"]
            + x1 ** 2 * x2 * p["a"]
            + x1 * x2 ** 2 * p["b"]
            + x2 ** 3 * p["d"]
        )
        linear = _t_linear_coefficient(pt)
        row_sum = tangent_quartic(pt.a, pt.b).poly
        if linear != row_sum:
            failures.append(f"sample {built}: t-linear != row-replacement sum")
        if linear != closed:
            failures.append(f"sample {built}: t-linear != closed form")
        if Form(linear, 4).evaluate(point):
            failures.append(f"sample {built}: tangent quartic nonzero at p")
        # projective comparison of the limit against the leading behaviour
        ratio = quartic.poly.leading_coefficient() * \
            linear.leading_coefficient().inverse()
        if quartic.poly != linear * ratio:
            failures.append(
                f"sample {built}: limit quartic not proportional to the "
                "t-linear coefficient"
            )
    ok = report(5, "degeneration coherence", not failures)
    assert ok, "; ".join(failures)


def test_criterion_6_twisted_ideal_round_trip():
    dom = GF(101)
    rng = random.Random(6)
    failures = []
    done = 0
    while done < 200 and not failures:
        l = Form(
            MultiPoly.variable(dom, 0) + random_form(dom, 1, rng).poly, 1
        )
        g = random_form(dom, 3, rng)
        w = random_form(dom, 1, rng)
        h = random_form(dom, 3, rng)
        f_poly = l.poly * h.poly - w.poly * g.poly
        if not f_poly or not g:
            continue
        done += 1
        res = build_twisted_ideal_resolution(Form(f_poly, 4), l, g)
        if l.poly * res.h.poly - res.w.poly * g.poly != f_poly:
            failures.append(f"sample {done}: f != l*h' - w'*g")
        if not res.semistable:
            failures.append(f"sample {done}: flagged unstable with l not | f")
    # the line-contained-in-the-curve case must be flagged
    l = parse_form("x0")
    f = Form(l.poly * parse_form("x0^3 + x1*x2^2").poly, 4)
    res = build_twisted_ideal_resolution(f, l, parse_form("x1^3 + x2^3"))
    if res.semistable:
        failures.append("l | f case not flagged as unstable")
    ok = report(6, "twisted-ideal round trip", not failures)
    assert ok, "; ".join(failures)


def _normalize_root(root):
    s, t = root
    if t:
        inv = t.inverse()
        return ((s * inv).value, 1)
    return (1, 0)


def test_criterion_7_flag_limit():
    rng = random.Random(7)
    failures = []
    done = 0
    while done < 100 and not failures:
        roots = [(F(rng.randrange(-3, 4)), F(1)) for _ in range(4)]
        if rng.randrange(5) == 0:
            roots[3] = (F(1), F(0))  # occasionally put the residual at t=0
        factors = MultiPoly.constant(QQ, 1)
        x1 = MultiPoly.variable(QQ, 1)
        x2 = MultiPoly.variable(QQ, 2)
        for s, t in roots:
            factors = factors * (x1 * QQ.scalar(t) - x2 * QQ.scalar(s))
        cubic_text = _poly_text(
            rng, ["x0^3", "x0^2*x1", "x0*x1*x2", "x1^3", "x1^2*x2",
                  "x1*x2^2", "x2^3"]
        )
        if cubic_text == "0":
            continue
        cubic = parse_form(cubic_text)
        f = Form(factors + MultiPoly.variable(QQ, 0) * cubic.poly, 4)
        l = parse_form("x0")
        if not f.restrict_to_line(l):
            continue
        done += 1
        datum = FlagDatum(f, l, [tuple(QQ.scalar(v) for v in r)
                                 for r in roots[:3]])
        point = flag_limit(datum)
        if f.evaluate(point):
            failures.append(f"sample {done}: residual point off the quartic")
        if l.evaluate(point):
            failures.append(f"sample {done}: residual point off the line")
        # multiset identity: roots of the full section = Z + residual
        restriction = f.restrict_to_line(l)
        all_roots, nonsplit = binary_roots(restriction)
        if nonsplit:
            failures.append(f"sample {done}: unexpected nonsplit factor")
            continue
        residual = restriction.poly
        for s, t in roots[:3]:
            residual = residual.exact_div(x1 * t - x2 * s)
        a, b = BinaryForm(residual, 1).coefficients
        expected = sorted(
            [_normalize_root(tuple(QQ.scalar(v) for v in r))
             for r in roots[:3]]
            + [_normalize_root((-b, a))]
        )
        if sorted(_normalize_root(r) for r in all_roots) != expected:
            failures.append(f"sample {done}: binary-root multisets differ")
    ok = report(7, "flag limit", not failures)
    assert ok, "; ".join(failures)


def test_criterion_8_fitting_support_oracle():
    dom = GF(101)
    rng = random.Random(8)
    failures = []
    done = 0
    x = [MultiPoly.variable(dom, i) for i in range(3)]
    while done < 50 and not failures:
        xbar0 = Form(x[0] + random_form(dom, 1, rng).poly, 1)
        w = random_form(dom, 1, rng)
        p = [random_form(dom, 2, rng) for _ in range(3)]
        q = [random_form(dom, 2, rng) for _ in range(3)]
        g = xbar0.poly * p[0].poly + x[1] * p[1].poly + x[2] * p[2].poly
        h = xbar0.poly * q[0].poly + x[1] * q[1].poly + x[2] * q[2].poly
        expected = xbar0.poly * h - w.poly * g
        if not expected:
            continue
        done += 1
        m = FormMatrix(
            (3, 3, 2, 2, 2),
            (2, 1, 1, 1),
            [
                [xbar0, p[0], p[1], p[2]],
                [w, q[0], q[1], q[2]],
                [Form.zero(dom, 0), Form(-x[2], 1), Form.zero(dom, 1),
                 xbar0],
                [Form.zero(dom, 0), Form(x[1], 1), Form(-xbar0.poly, 1),
                 Form.zero(dom, 1)],
                [Form.zero(dom, 0), Form.zero(dom, 1), Form(x[2], 1),
                 Form(-x[1], 1)],
            ],
        )
        support = fitting_support(m)
        if support.poly != expected.normalized():
            failures.append(f"sample {done}: support GCD != xbar0*h - w*g")
    ok = report(8, "Fitting-support oracle", not failures)
    assert ok, "; ".join(failures)
