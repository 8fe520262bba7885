"""Golden corpus: serialized outputs of the exact-algebra cores.

Each entry runs one of the shared cores (determinant, matrix product, row
reduction, linear solve, projective-point key, linear-form coefficients,
term serialization) through a public routine, over GF(101) and QQ, and
records what the routine prints.  ``golden_corpus.jsonl`` holds one JSON
line per entry and is compared byte for byte, so a refactor of those
cores must leave every output unchanged.
"""

import json
import random
from pathlib import Path

from quarticmoduli import verify
from quarticmoduli.degeneration import (
    DeformationInstance,
    build_twisted_ideal_resolution,
    fitting_support,
)
from quarticmoduli.field import GF, QQ
from quarticmoduli.matrices import (
    SHAPES,
    FormMatrix,
    act,
    make_matrix,
    random_form,
    random_graded_automorphism,
)
from quarticmoduli.poly import Form, MultiPoly, monomials_of_degree, parse_form
from quarticmoduli.strata import (
    M00,
    classify_res0,
    classify_res1,
    extract_Z_points,
)

EXPECTED = Path(__file__).with_name("golden_corpus.jsonl")
FIELDS = (GF(101), QQ)
SAMPLES = 20


def _form(domain, degree, rng):
    """A random form; over QQ the coefficients are small integers."""
    if domain == QQ:
        terms = {m: QQ.scalar(rng.randrange(-3, 4))
                 for m in monomials_of_degree(degree)}
        return Form(MultiPoly(QQ, terms), degree)
    return random_form(domain, degree, rng)


def _matrix(shape, domain, rng):
    src, tgt = SHAPES[shape]
    return FormMatrix(src, tgt, [[_form(domain, s - t, rng) for t in tgt]
                                 for s in src])


def _outcome(fn, *args):
    """fn(*args), or the error it raises, as printed text."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _z_points(report):
    z = extract_Z_points(report)
    return {"points": [[[str(c) for c in p], mult] for p, mult in z.points],
            "nonsplit": z.nonsplit_degree}


def _resolution(f, l, g):
    res = build_twisted_ideal_resolution(f, l, g)
    return [res.w.serialize(), res.h.serialize(), res.semistable]


def _support(m):
    return fitting_support(m).serialize()


def _line_restrictions(domain, rng):
    lines = ["x0", "x1", "x2", "x0 + x1", "2*x1 - x2", "x0 - 3*x1 + 2*x2"]
    out = []
    for text in lines:
        line = parse_form(text, domain=domain)
        f = _form(domain, 4, rng)
        out.append([text, f.serialize(), f.restrict_to_line(line).serialize(),
                    [str(c) for c in line.line_point(2, 3)]])
    return out


def corpus():
    """The corpus entries, as (name, JSON-serializable value) pairs."""
    entries = []
    for domain in FIELDS:
        rng = random.Random(2016)
        tag = repr(domain)
        for shape, classify in (("res0", classify_res0),
                                ("res1", classify_res1)):
            for i in range(SAMPLES):
                m = _matrix(shape, domain, rng)
                report = classify(m)
                entries.append((f"{tag} {shape} {i}", report.to_json_dict()))
                if report.label == M00:
                    entries.append((f"{tag} {shape} {i} Z",
                                    _outcome(_z_points, report)))
        if domain != QQ:  # random automorphisms need a prime field
            for i in range(4):
                for shape, (src, tgt) in SHAPES.items():
                    moved = act(random_graded_automorphism(src, domain, rng),
                                _matrix(shape, domain, rng),
                                random_graded_automorphism(tgt, domain, rng))
                    entries.append((f"{tag} act {shape} {i}", [
                        moved.serialize_entries(),
                        moved.determinant().serialize()]))
        entries.append((f"{tag} restrict", _line_restrictions(domain, rng)))
        for i in range(6):
            l = Form(MultiPoly.variable(domain, 0)
                     + _form(domain, 1, rng).poly, 1)
            g, w, h = (_form(domain, d, rng) for d in (3, 1, 3))
            f = Form(l.poly * h.poly - w.poly * g.poly, 4)
            entries.append((f"{tag} twisted {i}", _outcome(_resolution, f, l, g)))
        entries.append((f"{tag} twisted divisible", _outcome(
            _resolution, parse_form("x0*x1^3", domain=domain),
            parse_form("x0", domain=domain), parse_form("x2^3", domain=domain))))
        entries.append((f"{tag} twisted outside", _outcome(
            _resolution, parse_form("x2^4", domain=domain),
            parse_form("x0", domain=domain), parse_form("x1^3", domain=domain))))
        for i in range(3):
            inst = DeformationInstance(
                domain, Form(MultiPoly.variable(domain, 0)
                             + _form(domain, 1, rng).poly, 1),
                parse_form("2*x1 + 5*x2", domain=domain),
                [_form(domain, 2, rng) for _ in range(3)],
                [_form(domain, 1, rng) for _ in range(3)],
                [_form(domain, 1, rng) for _ in range(3)],
                rng.randrange(1, 50))
            for name, m in (("initial", inst.initial_matrix()),
                            ("final", inst.expected_final())):
                entries.append((f"{tag} fitting {name} {i}",
                                _outcome(_support, m)))
        for name, shape, rows in (
            ("readme M01", "res0",
             [["x1^2", "0", "0"], ["-x2", "0", "x0"], ["x1", "-x0", "0"]]),
            ("boundary", "res0",
             [["0", "-x2*x1", "x1*x1"], ["-x2", "0", "x0"], ["x1", "-x0", "0"]]),
            ("M00", "res0",
             [["x0^2", "x1^2", "x2^2"], ["x0", "x1", "0"], ["0", "x1", "x2"]]),
            ("not stable", "res0",
             [["x0^2", "0", "0"], ["x0", "x1", "0"], ["0", "0", "0"]]),
            ("M11", "res1", [["x0", "0"], ["x1", "x2^3"]]),
            ("M11 nonsplit", "res1", [["x0", "-x1*x2^2"], ["x1", "x0*x2^2"]]),
            ("M10", "res1", [["x0", "x1^3"], ["x1", "x2^3"]]),
        ):
            m = make_matrix(*SHAPES[shape], rows, domain=domain)
            report = (classify_res0 if shape == "res0" else classify_res1)(m)
            entries.append((f"{tag} {name}", report.to_json_dict()))
            if report.label == M00:
                entries.append((f"{tag} {name} Z", _outcome(_z_points, report)))
    entries.append(("verify run_all",
                    [r.to_json_dict() for r in verify.run_all()]))
    return entries


def corpus_text():
    return "".join(json.dumps([name, value]) + "\n" for name, value in corpus())


def test_golden_corpus_is_unchanged():
    expected = EXPECTED.read_text()
    got = corpus_text()
    for want_line, got_line in zip(expected.splitlines(), got.splitlines()):
        assert got_line == want_line
    assert got == expected
