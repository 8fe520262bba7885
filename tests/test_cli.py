import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from quarticmoduli import cli, strata
from quarticmoduli.betti import MAX_BETTI_DIMENSION
from quarticmoduli.degeneration import (family_from_json_dict, family_limit,
                                        make_blowup_chart_point)
from quarticmoduli.field import QQ, InvariantError
from quarticmoduli.matrices import make_matrix
from quarticmoduli.poly import monomials_of_degree
from quarticmoduli.verify import verify_fibre_determinant


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def m01_matrix_file(tmp_path):
    m = make_matrix((3, 2, 2), (1, 1, 1), [
        ["x1^2", "0", "0"],
        ["-x2", "0", "x0"],
        ["x1", "-x0", "0"],
    ])
    return write_json(tmp_path / "m01.json", m.to_json_dict())


def test_classify_valid_matrix(tmp_path, capsys):
    code = cli.main(["classify", m01_matrix_file(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "label: M01" in out
    assert "quartic: x0^2*x1^2" in out
    assert "line: x0" in out


def test_classify_json_output(tmp_path, capsys):
    code = cli.main(["classify", m01_matrix_file(tmp_path), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["label"] == "M01"
    assert data["quartic"] == "x0^2*x1^2"


def test_classify_not_stable_exits_two(tmp_path, capsys):
    m = make_matrix((3, 2, 2), (1, 1, 1), [
        ["x0^2", "0", "0"],
        ["x0", "x1", "0"],
        ["0", "0", "0"],
    ])
    path = write_json(tmp_path / "bad.json", m.to_json_dict())
    code = cli.main(["classify", path])
    assert code == 2
    assert "NotStable" in capsys.readouterr().out


def test_classify_res1_shape(tmp_path, capsys):
    m = make_matrix((3, 3), (2, 0), [["x0", "x1^3"], ["x1", "x2^3"]])
    path = write_json(tmp_path / "res1.json", m.to_json_dict())
    code = cli.main(["classify", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "label: M10" in out


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (1, 0), (0, 1)],
                         ids=["0x0", "1x0", "0x1"])
def test_classify_empty_shape_is_invalid(tmp_path, capsys, nrows, ncols):
    path = write_json(tmp_path / "empty.json", {
        "src_degrees": [3] * nrows, "tgt_degrees": [1] * ncols,
        "entries": [[]] * nrows})
    code = cli.main(["classify", path])
    assert code == 2
    assert "label: Invalid" in capsys.readouterr().out


P61 = "2305843009213693951"  # 2^61 - 1


def test_classify_m11_smooth_at_the_point_at_a_large_prime(tmp_path, capsys):
    """The quartic -(2*x0 + x1)*(x2^3 + x0*x1^2) is smooth at the point
    (0 : 0 : 1), so its tangent line decides M11 at any prime."""
    m = make_matrix((3, 3), (2, 0), [["x0", "x2^3 + x0*x1^2 + x0*x2^2"],
                                     ["x1", "-2*x2^3 - 2*x0*x1^2 + x1*x2^2"]])
    path = write_json(tmp_path / "m11.json", m.to_json_dict())
    code = cli.main(["classify", path, "--field", P61])
    out = capsys.readouterr().out
    assert code == 0
    assert "label: M11" in out


def test_classify_singular_point_nonsplit_at_a_large_prime(tmp_path, capsys):
    """x2^2*(x0^2 + x1^2) is singular at the point (0 : 0 : 1), and
    x0^2 + x1^2 does not split mod 2^61 - 1, so the pencil search finds
    the roots of a binary form at that prime: none, and a non-split
    quadratic."""
    m = make_matrix((3, 3), (2, 0), [["x0", "-x1*x2^2"], ["x1", "x0*x2^2"]])
    path = write_json(tmp_path / "singular.json", m.to_json_dict())
    code = cli.main(["classify", path, "--field", P61])
    out = capsys.readouterr().out
    assert code == 0
    assert "label: M11" in out
    assert "non-split remainder of degree 2" in out


def test_classify_singular_point_split_at_a_large_prime(tmp_path, capsys):
    """x2^2*(x0^2 - x1^2) is singular at the point (0 : 0 : 1) and splits,
    so the roots of the pencil's binary form give the line x0 + x1."""
    m = make_matrix((3, 3), (2, 0), [["x0", "x1*x2^2"], ["x1", "x0*x2^2"]])
    path = write_json(tmp_path / "singular.json", m.to_json_dict())
    code = cli.main(["classify", path, "--field", P61])
    out = capsys.readouterr().out
    assert code == 0
    assert "label: M11" in out
    assert "line: x0 + x1" in out


@contextlib.contextmanager
def hang_bound(seconds):
    """Raise TimeoutError if the block runs longer than seconds: a bound
    on a hang, not a speed check."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("entries, line", [
    ([["2*x0", "x0*x2*x1"],
      ["x0 + 5*x2 + 6767357376554402722610286*x2", "0"]], "x0"),
    ([["x0", f"{(10**12 + 39)**2}*x1*x2^2"], ["x1", "49*x0*x2^2"]],
     "x0 + 1000000000039/7*x1"),
    ([["x0", f"{1000003**2}*x1*x2^2"], ["x1", "49*x0*x2^2"]],
     "x0 + 1000003/7*x1"),
], ids=["25-digit", "(10^12+39)^2", "1000003^2"])
def test_classify_singular_point_with_large_rational_roots(tmp_path, capsys,
                                                         entries, line):
    """Quartics singular at the point over QQ, whose pencil binary forms
    have roots with 7- to 25-digit numerators: the root search lifts GF(p)
    roots, so it enumerates no divisor of those coefficients."""
    path = write_json(tmp_path / "m11.json", {
        "src_degrees": [3, 3], "tgt_degrees": [2, 0], "entries": entries})
    with hang_bound(10):
        code = cli.main(["classify", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "label: M11" in out
    assert f"line: {line}\n" in out


def test_classify_invariant_failure_exits_three(tmp_path, capsys,
                                               monkeypatch):
    def failing_check(forms, through=None):
        raise InvariantError("x0 should have been divided out")

    m = make_matrix((3, 3), (2, 0), [["x0", "x1^3"], ["x1", "x2^3"]])
    path = write_json(tmp_path / "res1.json", m.to_json_dict())
    monkeypatch.setattr(strata, "lines_dividing_all", failing_check)
    code = cli.main(["classify", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "error: internal invariant failed: x0 should have been divided out\n")


def test_classify_malformed_file_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = cli.main(["classify", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_classify_missing_file_exits_one(tmp_path, capsys):
    code = cli.main(["classify", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def family_data():
    pt = make_blowup_chart_point(
        domain=QQ,
        alpha=F(0),
        beta=F(0),
        gamma=F(0),
        delta=F(1),
        q0_text="x1^2",
        q1_text="0",
        q2_text="0",
        ab_cd=(F(1), F(0), F(0), F(0)),
        chart="a",
        t=F(1),
    )
    return pt.to_json_dict(t_values=[F(1), F(1, 2), F(0)])


def family_file(tmp_path):
    return write_json(tmp_path / "family.json", family_data())


def test_limit_traces_family(tmp_path, capsys):
    code = cli.main(["limit", family_file(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "t = 1: M00" in out
    assert "t = 1/2: M00" in out
    assert "t = 0" not in out.replace("t -> 0", "")
    assert "limit quartic: x0^2*x1^2 - x1^2*x2^2" in out


def test_limit_json(tmp_path, capsys):
    code = cli.main(["limit", family_file(tmp_path), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [step["label"] for step in data["trace"]] == ["M00", "M00"]
    assert data["limit"]["quartic"] == "x0^2*x1^2 - x1^2*x2^2"


@pytest.mark.parametrize("entry", ["(x0+x1+x2)^480", "(x0+x1"],
                         ids=["degree 480", "malformed"])
def test_classify_labels_a_shape_before_parsing_an_entry(tmp_path, capsys,
                                                         entry):
    # a file of neither shape is labelled Invalid with no entry parsed: at
    # degree 480 the parse took 25 s, and a malformed entry exited 1
    path = write_json(tmp_path / "off.json", dict(OFF_SHAPE,
                                                  entries=[[entry]]))
    start = time.monotonic()
    code = cli.main(["classify", path])
    assert time.monotonic() - start < 1
    assert code == 2
    assert capsys.readouterr() == (
        "label: Invalid\ndiagnostics: expected shape res0\n", "")


SEVENS = "7" * 4000  # a literal that parses, whose products do not print


@pytest.mark.parametrize("data", [
    {"src_degrees": [3, 2, 2], "tgt_degrees": [1, 1, 1], "entries": [
        [f"{SEVENS}*x0^2", f"{SEVENS}*x1^2", f"{SEVENS}*x2^2"],
        ["x0", f"{SEVENS}*x1", "x2"], [f"{SEVENS}*x2", "x0", f"{SEVENS}*x1"]]},
    {"src_degrees": [3, 3], "tgt_degrees": [2, 0], "entries": [
        [f"{SEVENS}*x1", "x0^3"], ["x2", f"{SEVENS}*x1^3"]]},
], ids=["res0", "res1"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_classify_prints_results_of_over_4300_digits(tmp_path, capsys, data,
                                                      as_json):
    # quartics with coefficients of about 8,000 digits print exactly, as
    # the library gives them, and the interpreter's limit is restored
    path = write_json(tmp_path / "big.json", data)
    limit = sys.get_int_max_str_digits()
    code = cli.main(["classify", path] + ["--json"] * as_json)
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    report = (strata.classify_res1 if data["src_degrees"] == [3, 3]
              else strata.classify_res0)(make_matrix(
                  data["src_degrees"], data["tgt_degrees"], data["entries"]))
    assert code == 0 and report.label in (strata.M00, strata.M10)
    sys.set_int_max_str_digits(0)
    try:
        quartic = report.quartic.serialize()
        assert len(max(quartic.split(), key=len)) > 7000
        if as_json:
            assert json.loads(out) == report.to_json_dict()
        else:
            assert f"label: {report.label}\nquartic: {quartic}\n" in out
    finally:
        sys.set_int_max_str_digits(limit)


def test_limit_prints_results_of_over_4300_digits(tmp_path, capsys):
    # alpha of 4,000 digits gives a limit quartic of about 8,000-digit
    # coefficients, printed exactly as the library gives it
    data = chart_family((SEVENS, "0", "0", "1", "x0^2", "0", "0", "1", "0",
                         "0", "0"), "a", [])
    limit = sys.get_int_max_str_digits()
    code = cli.main(["limit", write_json(tmp_path / "big.json", data),
                     "--json"])
    assert sys.get_int_max_str_digits() == limit
    out = json.loads(capsys.readouterr().out)
    quartic, point = family_limit(family_from_json_dict(data, QQ)[0])
    sys.set_int_max_str_digits(0)
    try:
        assert code == 0
        assert out["limit"] == {"quartic": quartic.serialize(),
                                "point": [str(c) for c in point]}
        assert len(max(out["limit"]["quartic"].split(), key=len)) > 7000
    finally:
        sys.set_int_max_str_digits(limit)


def test_betti_builtin_m(capsys):
    code = cli.main(["betti", "M", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["coefficients"] == [
        1, 2, 6, 10, 14, 15, 16, 16, 16, 16, 16, 16, 15, 14, 10, 6, 2, 1,
    ]
    assert any("palindromic" in note for note in data["notes"])


def test_betti_projective_space(capsys):
    code = cli.main(["betti", "P5"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "1 + q + q^2 + q^3 + q^4 + q^5"


def test_betti_expression_file(tmp_path, capsys):
    expr = {
        "type": "substitute",
        "total": {
            "type": "product",
            "factors": [
                {"type": "projective", "n": 2},
                {"type": "projective", "n": 2},
            ],
        },
        "removed": {"type": "projective", "n": 1},
        "inserted": {"type": "projbundle",
                     "base": {"type": "projective", "n": 1}, "rank": 2},
    }
    path = write_json(tmp_path / "expr.json", expr)
    code = cli.main(["betti", str(path), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    # P2 x P2 - P1 + P1 x P1 = (1,2,3,2,1) - (1,1) + (1,2,1)
    assert data["coefficients"] == [1, 3, 4, 2, 1]


def test_betti_unknown_name_exits_one(capsys):
    code = cli.main(["betti", "XYZ"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_verify_all_passes(capsys):
    code = cli.main(["verify", "--all", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["all_passed"]
    assert len(data["reports"]) == 7


def test_verify_single_with_alpha(capsys):
    code = cli.main(["verify", "transition", "--alpha", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] transition" in out


def test_verify_takes_the_seed(capsys, monkeypatch):
    """--seed, and QML_SEED without it, reach a seeded verifier."""
    want = verify_fibre_determinant(7).to_json_dict()
    assert want != verify_fibre_determinant(0).to_json_dict()
    monkeypatch.delenv("QML_SEED", raising=False)
    assert cli.main(["verify", "fibre-determinant", "--seed", "7",
                     "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["reports"] == [want]
    monkeypatch.setenv("QML_SEED", "7")
    assert cli.main(["verify", "fibre-determinant", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["reports"] == [want]


def test_verify_unknown_name_exits_one(capsys):
    code = cli.main(["verify", "no-such-check"])
    assert code == 1
    assert "unknown verifier" in capsys.readouterr().err


def test_verify_requires_name_or_all(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify"])


def test_sample_deterministic(capsys):
    code = cli.main(["sample", "res0", "--field", "101", "--seed", "4",
                     "--count", "30", "--json"])
    first = json.loads(capsys.readouterr().out)
    assert code == 0
    cli.main(["sample", "res0", "--field", "101", "--seed", "4",
              "--count", "30", "--json"])
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert sum(first["histogram"].values()) == 30


LABELS = {strata.M00, strata.M01, strata.M10, strata.M11, strata.BOUNDARY,
          strata.NOT_STABLE, strata.INVALID}


def test_sample_over_the_rationals(capsys):
    # random_form draws integers in [-9, 9] over QQ
    for shape in ("res0", "res1"):
        code = cli.main(["sample", shape, "--field", "q", "--count", "5",
                         "--seed", "1", "--json"])
        histogram = json.loads(capsys.readouterr().out)["histogram"]
        assert code == 0
        assert sum(histogram.values()) == 5
        assert set(histogram) <= LABELS


def test_sample_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QML_SEED", "4")
    cli.main(["sample", "res0", "--field", "101", "--count", "30", "--json"])
    via_env = json.loads(capsys.readouterr().out)
    monkeypatch.delenv("QML_SEED")
    cli.main(["sample", "res0", "--field", "101", "--seed", "4",
              "--count", "30", "--json"])
    via_flag = json.loads(capsys.readouterr().out)
    assert via_env == via_flag


@pytest.mark.parametrize("value", ["abc", "9" * 5000, "1" * 4301],
                         ids=["text", "5000 digits", "4301 digits"])
@pytest.mark.parametrize("command", [["sample", "res0", "--field", "101",
                                      "--count", "2"],
                                     ["verify", "fibre-determinant"]],
                         ids=["sample", "verify"])
def test_a_bad_seed_variable_is_refused_by_name(capsys, monkeypatch, value,
                                                 command):
    # one line that names QML_SEED and quotes none of its text; the digits
    # are counted before int() reads them, also where the interpreter's
    # own limit on them is lifted
    monkeypatch.setenv("QML_SEED", value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.monotonic()
        code = cli.main(command)
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert time.monotonic() - start < 1
    assert captured.err == \
        "error: QML_SEED: not an integer of up to 4300 digits\n"


@pytest.mark.parametrize("value", ["abc", "x" * 200, "1__01", "10/1", ""],
                         ids=["text", "200 letters", "double underscore",
                              "fraction", "empty"])
@pytest.mark.parametrize("command", [["betti", "M"],
                                     ["sample", "res0", "--count", "1"]],
                         ids=["betti", "sample"])
def test_a_bad_field_is_refused_by_name(capsys, value, command):
    # one line that names --field and quotes none of its text
    code = cli.main(command + ["--field=" + value])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: --field: not 'q' or an integer\n"


def test_field_values_that_int_reads_stay_accepted(capsys):
    for value in (" 101 ", "\u0661\u0660\u0661", "+101", "1_01"):
        assert cli.main(["sample", "res0", "--count", "1",
                         "--field=" + value]) == 0
    assert capsys.readouterr().err == ""


def test_a_seed_variable_of_4300_digits_is_read(capsys, monkeypatch):
    monkeypatch.setenv("QML_SEED", "9" * 4300)
    assert cli.main(["sample", "res0", "--field", "101", "--count", "2"]) == 0
    assert capsys.readouterr().err == ""


# ---- malformed input ----------------------------------------------------

FILE = "<input file>"
RES1 = {"src_degrees": [3, 3], "tgt_degrees": [2, 0],
        "entries": [["x0", "x1^3"], ["x1", "x2^3"]]}


def res1(**changes):
    return dict(RES1, **changes)


class RawJSON(str):
    """Input file text written as it is, for JSON that json.dumps cannot
    produce."""


DEEP_LIST = RawJSON("[" * 100_000 + "]" * 100_000)
LONG_PRODUCT = "*".join(["(x0+x1+x2)"] * 240)  # 2,639 characters
LITERAL_PRODUCT = "*".join(["9" * 4300] * 200) + "*x0"
# off the res0 and res1 shapes, with an entry of degree 480 to expand
OFF_SHAPE = {"src_degrees": [480], "tgt_degrees": [0],
             "entries": [["(x0+x1+x2)^480"]]}


def nested_product(depth):
    expr = {"type": "projective", "n": 1}
    for _ in range(depth):
        expr = {"type": "product", "factors": [expr]}
    return expr


# P(P^500 bundle of rank 501): within the dimension limit, and it costs
# 501 * 501 coefficient products
BUNDLE = {"type": "projbundle", "base": {"type": "projective", "n": 500},
          "rank": 501}


def substituted(expr, depth):
    """A substitute tree depth deep whose 3^depth leaves are each expr."""
    for _ in range(depth):
        expr = {"type": "substitute", "total": expr, "removed": expr,
                "inserted": expr}
    return expr


def family(path, value):
    """The family description with the item at path replaced."""
    data = family_data()
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return data


MALFORMED = {
    "top-level list": (["classify", FILE], [1, 2],
                       "expected a JSON object, got list"),
    "top-level null": (["classify", FILE], None,
                       "expected a JSON object, got NoneType"),
    "entries number": (["classify", FILE], res1(entries=5),
                       "entries: expected a list, got int"),
    "integer entry": (["classify", FILE],
                      res1(entries=[[1, "x1^3"], ["x1", "x2^3"]]),
                      "entries[0][0]: expected a string, got int"),
    "row not a list": (["classify", FILE], res1(entries=["x0", "x1"]),
                       "entries[0]: expected a list, got str"),
    "short row": (["classify", FILE], res1(entries=[["x0"], ["x1", "x2^3"]]),
                  "entries[0]: expected 2 items, got 1"),
    "extra row": (["classify", FILE],
                  res1(entries=[["x0", "x1^3"], ["x1", "x2^3"], ["x2", "0"]]),
                  "entries: expected 2 items, got 3"),
    "missing degrees": (["classify", FILE], res1(src_degrees=None),
                        "src_degrees: expected a list, got NoneType"),
    "text degree": (["classify", FILE], res1(tgt_degrees=[2, "0"]),
                    "tgt_degrees[1]: expected an integer, got str"),
    "boolean degree": (["classify", FILE], res1(src_degrees=[3, True]),
                       "src_degrees[1]: expected an integer, got bool"),
    "wrong entry degree": (["classify", FILE],
                           res1(entries=[["x0^2", "x1^3"], ["x1", "x2^3"]]),
                           "entry (0,0) must have degree 1"),
    "huge exponent": (["classify", FILE],
                      res1(entries=[["x0^999999999", "x1^3"], ["x1", "x2^3"]]),
                      "entry (0,0) must have degree 1"),
    "huge constant power": (["classify", FILE],
                            res1(entries=[["2^999999999*x0", "x1^3"],
                                          ["x1", "x2^3"]]),
                            "error: entry (0,0): '2^999999999' has over 4300 "
                            "digits"),
    "long exponent": (["classify", FILE],
                      res1(entries=[["x0^" + "1" * 5000, "x1^3"],
                                    ["x1", "x2^3"]]),
                      f"error: entry (0,0): '{'1' * 5000}' has over 4300 "
                      "digits"),
    # the degree, 2 * <4,300 nines>, has too many digits to print
    "huge degree text": (["classify", FILE],
                         {"src_degrees": [3, 2, 2], "tgt_degrees": [1, 1, 1],
                          "entries": [["(x0*x1)^" + "9" * 4300, "0", "0"],
                                      ["0", "0", "0"], ["0", "0", "0"]]},
                         "error: entry (0,0) must have degree 2, got a power "
                         "of degree >= 2^31: '(x0*x1)^999"),
    "long literal": (["classify", FILE],
                     res1(entries=[["x0", "1" * 4301 + "*x1^3"],
                                   ["x1", "x2^3"]]),
                     f"error: entry (0,1): '{'1' * 4301}' has over 4300 "
                     "digits"),
    # refused before it is expanded, which took over 2 s and printed a
    # 3.1 MB line quoting the expanded polynomial of degree 240
    "long product": (["classify", FILE],
                     res1(entries=[[LONG_PRODUCT, "x1^3"], ["x1", "x2^3"]]),
                     f"error: entry (0,0) must have degree 1, got a product "
                     f"of degree 2: {LONG_PRODUCT!r}"),
    # refused at the first product, which ran 2.4 s into the interpreter's
    # own text on the digits of its value
    "long literal product": (["classify", FILE],
                             res1(entries=[[LITERAL_PRODUCT, "x1^3"],
                                           ["x1", "x2^3"]]),
                             f"error: entry (0,0): '{'9' * 4300}*{'9' * 4300}'"
                             " has over 4300 digits"),
    "bad character": (["classify", FILE],
                      res1(entries=[["x0", "x1^3"], ["x1", "x2^3 $"]]),
                      "error: entry (1,1): unexpected character '$'"),
    "deep matrix nesting": (["classify", FILE], DEEP_LIST,
                            "JSON nested too deeply"),
    "deep parentheses": (["classify", FILE],
                         res1(entries=[["(" * 5000 + "x0" + ")" * 5000,
                                        "x1^3"], ["x1", "x2^3"]]),
                         "expression nested too deeply"),
    "family list": (["limit", FILE], [], "expected a JSON object, got list"),
    "deep family nesting": (["limit", FILE], DEEP_LIST,
                            "JSON nested too deeply"),
    "family integer entry": (["limit", FILE],
                             family(["A", "entries", 0, 0], 0),
                             "A: entries[0][0]: expected a string, got int"),
    "family missing B": (["limit", FILE], family(["B"], None),
                         "B: expected a JSON object, got NoneType"),
    # refused by its shape before its entry is parsed, which took 25 s
    "family off-shape A": (["limit", FILE], family(["A"], OFF_SHAPE),
                           "error: base matrix must have the res0 shape"),
    "family off-shape B": (["limit", FILE], family(["B"], OFF_SHAPE),
                           "error: direction matrix must have the res0 shape"),
    "family integer t": (["limit", FILE], family(["t_values"], [1]),
                         "t_values[0]: expected a string, got int"),
    "family zero denominator": (["limit", FILE], family(["t_values"], ["1/0"]),
                                "t_values[0]:"),
    # refused before the exponent is expanded, which took over 5 s
    "family huge exponent t": (["limit", FILE],
                               family(["t_values"], ["1", "1e99999999"]),
                               "t_values[1]: '1e99999999' has over 4300 "
                               "digits"),
    "family huge negative exponent t": (["limit", FILE],
                                        family(["t_values"], ["1e-99999999"]),
                                        "t_values[0]: '1e-99999999' has over "
                                        "4300 digits"),
    # refused before int() reads it, not by the interpreter's own text
    "family long literal t": (["limit", FILE],
                              family(["t_values"], ["1" * 4301]),
                              f"error: t_values[0]: '{'1' * 4301}' has over "
                              "4300 digits"),
    "family integer chart": (["limit", FILE], family(["chart"], 5),
                             "chart: expected a string"),
    "chart with one exponent": (["limit", FILE], family(["chart"], "q0[9]"),
                                "chart: 'q0[9]' is not of the form "
                                "q0[e0,e1,e2]"),
    "chart with a letter": (["limit", FILE], family(["chart"], "q0[a]"),
                            "chart: 'q0[a]' is not of the form q0[e0,e1,e2]"),
    "chart with two exponents": (["limit", FILE],
                                 family(["chart"], "q0[1,1]"),
                                 "chart: 'q0[1,1]' is not of the form "
                                 "q0[e0,e1,e2]"),
    "chart of no q entry": (["limit", FILE], family(["chart"], "q3[0,2,0]"),
                            "unknown chart coordinate 'q3[0,2,0]'"),
    "expression list": (["betti", FILE], [],
                        "expected a JSON object, got list"),
    "expression without type": (["betti", FILE], {"n": 2},
                                "type: unknown expression type None"),
    "text dimension": (["betti", FILE], {"type": "projective", "n": "3"},
                       "n: expected an integer, got str"),
    "literal number": (["betti", FILE], {"type": "literal", "coefficients": 5},
                       "coefficients: expected a list, got int"),
    "literal number name": (["betti", FILE], {
        "type": "literal", "name": 5, "coefficients": [1]},
        "name: expected a string, got int"),
    "empty literal": (["betti", FILE], {"type": "literal", "coefficients": []},
                      "coefficients: a literal needs a nonzero coefficient"),
    "zero literal": (["betti", FILE], {"type": "literal",
                                       "coefficients": [0, 0]},
                     "coefficients: a literal needs a nonzero coefficient"),
    "empty literal offsetting a product": (["betti", FILE], {
        "type": "product", "factors": [
            {"type": "projective", "n": 1001},
            {"type": "literal", "coefficients": []}]},
        "factors[0]: dimension 1001 exceeds the limit of 1000"),
    "product number": (["betti", FILE], {"type": "product", "factors": 3},
                       "factors: expected a list, got int"),
    "nested text dimension": (["betti", FILE], {
        "type": "product", "factors": [{"type": "projective", "n": "3"}]},
        "factors[0]: n: expected an integer, got str"),
    "text rank": (["betti", FILE], {
        "type": "projbundle", "base": {"type": "projective", "n": 2},
        "rank": "2"}, "rank: expected an integer, got str"),
    "deep expression nesting": (["betti", FILE], DEEP_LIST,
                                "JSON nested too deeply"),
    "deep product nesting": (["betti", FILE], nested_product(400),
                             "expression nested too deeply"),
    # 26 KB, 243 leaves: about 61 million products without the budget
    "costly expression": (["betti", FILE], substituted(BUNDLE, 5),
                          "the expression needs more than 3000000 "
                          "coefficient products"),
    # 1.2 MB, 19,683 leaves P^1000 of 1,001 coefficients each: about 5 s
    # when only the products were charged
    "many cheap leaves": (["betti", FILE],
                          substituted({"type": "projective", "n": 1000}, 9),
                          "the expression needs more than 3000000 "
                          "coefficient products"),
    "huge projective space": (["betti", "P1000000000"], None,
                              "dimension 1000000000 exceeds the limit"),
    "huge projective expression": (["betti", FILE],
                                   {"type": "projective", "n": 1000000000},
                                   "dimension 1000000000 exceeds the limit"),
    "alpha zero denominator": (["verify", "transition", "--alpha", "1/0"],
                               None, "error: '1/0' has a zero denominator"),
    "alpha bad mantissa": (["verify", "transition", "--alpha", "1e5e99999999"],
                           None,
                           "error: Invalid literal for Fraction: "
                           "'1e5e99999999'"),
    "negative count": (["sample", "res0", "--field", "101", "--count", "-5"],
                       None, "--count must be at least 1"),
    "zero count": (["sample", "res1", "--field", "101", "--count", "0"],
                   None, "--count must be at least 1"),
    "betti text field": (["betti", "M", "--field", "abc"], None,
                         "error: --field: not 'q' or an integer"),
    "sample text field": (["sample", "res0", "--field", "abc", "--count",
                           "1"], None, "error: --field: not 'q' or an integer"),
    "betti long field": (["betti", "M", "--field", "1" * 4301], None,
                         "error: --field has over 19 digits"),
    "verify composite field": (["verify", "cocycle", "--field", "4"], None,
                               "need an odd prime < 2^62, got 4"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_exits_one_with_one_error_line(tmp_path, capsys,
                                                       case):
    args, payload, message = MALFORMED[case]
    if FILE in args:
        path = tmp_path / "input.json"
        path.write_text(payload if isinstance(payload, RawJSON)
                        else json.dumps(payload))
        args = [str(path) if a == FILE else a for a in args]
    start = time.monotonic()
    code = cli.main(args)
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 1
    assert elapsed < 1
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert message in lines[0]


def test_betti_constant_factors_cost_one_term_each(tmp_path, capsys):
    # P^1000 times 10,000 copies of P^0: multiplied in the order given,
    # each constant factor would cost a pass over 1,001 coefficients
    path = write_json(tmp_path / "expr.json", {"type": "product", "factors": [
        {"type": "projective", "n": 1000}]
        + [{"type": "projective", "n": 0}] * 10_000})
    start = time.monotonic()
    code = cli.main(["betti", path, "--json"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out)["coefficients"] == [1] * 1001
    assert elapsed < 1


# ---- a fuzz gate for betti expression files --------------------------------

def expressions(st):
    """Random betti expression trees: well-formed ones, ones with empty
    and zero literals, negative and over-limit n and rank, values of the
    wrong type and unknown types, and products nested past the depth
    bound."""
    wrong = st.sampled_from([None, True, 1.5, "3", [], {}])

    def trees(sizes, coefficients, names, *odd_leaves):
        leaves = st.one_of(
            st.fixed_dictionaries({"type": st.just("projective"),
                                   "n": sizes}),
            st.fixed_dictionaries({"type": st.just("literal"),
                                   "coefficients": coefficients},
                                  optional={"name": names}),
            *odd_leaves)

        def extend(children):
            return st.one_of(
                st.fixed_dictionaries({
                    "type": st.just("product"),
                    "factors": st.lists(children, max_size=4)}),
                st.fixed_dictionaries({"type": st.just("projbundle"),
                                       "base": children, "rank": sizes}),
                st.fixed_dictionaries({
                    "type": st.just("substitute"), "total": children,
                    "removed": children, "inserted": children}))

        return st.recursive(leaves, extend, max_leaves=10)

    small = st.integers(1, 6)
    edge = st.sampled_from([-2, -1, 0, 1000, 1001, 10**9])
    coefficients = st.lists(st.integers(-3, 3), max_size=4)
    names = st.text(max_size=2)
    untyped = st.fixed_dictionaries({}, optional={"type": st.sampled_from(
        ["projectiv", "", 3, None])})
    return st.one_of(
        trees(small, coefficients.filter(any), names),
        trees(st.one_of(small, edge, wrong), st.one_of(coefficients, wrong),
              st.one_of(names, wrong), untyped, wrong),
        st.integers(0, 100).map(nested_product))


def euler_number(expr):
    """P(1) of a well-formed expression, from its Euler-number rules."""
    kind = expr["type"]
    if kind == "projective":
        return expr["n"] + 1
    if kind == "literal":
        return sum(expr["coefficients"])
    if kind == "product":
        out = 1
        for factor in expr["factors"]:
            out *= euler_number(factor)
        return out
    if kind == "projbundle":
        return euler_number(expr["base"]) * expr["rank"]
    return euler_number(expr["total"]) - euler_number(expr["removed"]) \
        + euler_number(expr["inserted"])


def test_betti_expression_fuzz(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "expr.json"

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(expressions(hypothesis.strategies))
    def answered_or_refused(expr):
        path.write_text(json.dumps(expr))
        with hang_bound(10):
            code = cli.main(["betti", str(path), "--json"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        if code == 1:
            lines = captured.err.splitlines()
            assert captured.out == ""
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            coefficients = json.loads(captured.out)["coefficients"]
            assert len(coefficients) <= MAX_BETTI_DIMENSION + 1
            assert sum(coefficients) == euler_number(expr)

    answered_or_refused()


# ---- a fuzz gate for classify matrix files ---------------------------------

def form_text(terms):
    """The text of a sum of terms exponent -> coefficient, "0" if empty."""
    return " + ".join(
        "*".join([f"({c})"] + [f"{v}^{e}" for v, e in
                               zip(("x0", "x1", "x2"), exp) if e])
        for exp, c in terms.items()) or "0"


def matrix_files(st):
    """Random classify inputs: res0 and res1 files whose entries have the
    required degrees and coefficients of up to 40 digits, integers or
    fractions; the same entries under the degrees of another shape or of
    the same shape; and JSON values that are no matrix."""
    digits = st.integers(-10**40, 10**40)
    coefficient = st.one_of(digits, st.builds(F, digits,
                                              st.integers(1, 10**40)))

    def entries(src, tgt, least=0):
        def form(degree):
            if degree < 0:
                return st.just("0")
            monomials = monomials_of_degree(degree)
            return st.dictionaries(
                st.sampled_from(monomials), coefficient, min_size=least,
                max_size=min(4, len(monomials))).map(form_text)

        return st.tuples(*[st.tuples(*[form(s - t) for t in tgt])
                           for s in src])

    shapes = [((3, 2, 2), (1, 1, 1)), ((3, 3), (2, 0)), ((2, 2), (1, 1, 1)),
              ((3, 2, 2), (1, 1)), ((3, 3, 3), (2, 0)), ((4, 3), (2, 1))]
    degrees = st.sampled_from(shapes)
    json_values = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.text(max_size=4)),
        lambda c: st.one_of(st.lists(c, max_size=3),
                            st.dictionaries(st.text(max_size=3), c,
                                            max_size=3)),
        max_leaves=6)
    return st.one_of(
        st.sampled_from(shapes[:2]).flatmap(
            lambda shape: entries(*shape, 1).map(lambda rows: {
                "src_degrees": shape[0], "tgt_degrees": shape[1],
                "entries": rows})),
        st.tuples(degrees, degrees).flatmap(
            lambda pair: entries(*pair[0]).map(lambda rows: {
                "src_degrees": pair[1][0], "tgt_degrees": pair[1][1],
                "entries": rows})),
        st.fixed_dictionaries({}, optional={
            "src_degrees": json_values, "tgt_degrees": json_values,
            "entries": json_values}),
        json_values)


FIELDS = ["q", "3", "101", str(2**61 - 1)]


def test_classify_matrix_file_fuzz(tmp_path, capsys):
    # every input is answered with a label (exit 0 or 2) or refused with
    # one error line (exit 1, or 3 for an invariant), within a hang bound
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "matrix.json"

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(matrix_files(st), st.sampled_from(FIELDS))
    def answered_or_refused(payload, field):
        path.write_text(payload if isinstance(payload, RawJSON)
                        else json.dumps(payload))
        with hang_bound(10):
            code = cli.main(["classify", str(path), "--field", field])
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        lines = captured.err.splitlines()
        if code in (1, 3):
            assert captured.out == ""
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert captured.out.startswith("label: ") and not lines

    for args, payload, _ in MALFORMED.values():  # each a fixed example
        if args[0] == "classify":
            answered_or_refused = hypothesis.example(payload, "q")(
                answered_or_refused)
    # off the two shapes, labelled Invalid with no entry parsed; and a
    # result of about 8,000-digit coefficients, printed exactly
    for entry in ("(x0+x1+x2)^480", "(x0+x1"):
        answered_or_refused = hypothesis.example(
            dict(OFF_SHAPE, entries=[[entry]]), "q")(answered_or_refused)
    answered_or_refused = hypothesis.example(
        {"src_degrees": [3, 3], "tgt_degrees": [2, 0], "entries": [
            [f"{SEVENS}*x1", "x0^3"], ["x2", f"{SEVENS}*x1^3"]]}, "q")(
        answered_or_refused)
    answered_or_refused()


# ---- a fuzz gate for limit family files -------------------------------------

CHARTS = ["a", "b", "c", "d", "q0[2,0,0]", "q1[0,1,1]", "q2[0,0,2]"]


def chart_family(params, chart, t_values):
    """The family file of the chart point with the given parameters
    (alpha, beta, gamma, delta, q0, q1, q2, a, b, c, d), each a scalar text
    or, for q0, q1 and q2, a form text: A the boundary normal form
    [[0, -x2*w, x1*w], [-x2, 0, xbar0], [x1, -xbar0, 0]] and B the chart
    direction, written as text without checking them."""
    alpha, beta, gamma, delta, q0, q1, q2, a, b, c, d = params
    xbar0 = f"x0 + ({alpha})*x1 + ({beta})*x2"
    w = f"({gamma})*x1 + ({delta})*x2"
    res0 = {"src_degrees": [3, 2, 2], "tgt_degrees": [1, 1, 1]}
    return {
        "A": dict(res0, entries=[["0", f"-x2*({w})", f"x1*({w})"],
                                 ["-x2", "0", xbar0],
                                 ["x1", f"-({xbar0})", "0"]]),
        "B": dict(res0, entries=[[q0, q1, q2],
                                 ["0", f"({c})*x1", "0"],
                                 ["0", f"({a})*x1 + ({b})*x2", f"({d})*x2"]]),
        "chart": chart, "t_values": t_values}


def family_files(st):
    """Random limit inputs: chart points whose chart coefficient is 1, and
    so well formed unless a drawn parameter breaks the chart contract
    (a zero w or direction, an unstable linear part); the same points with
    a chart coefficient drawn at random, the shape of one matrix changed
    or a row cut off, or t_values that are no list of rationals; and JSON
    values that are no family."""
    scalar = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4),
                       st.integers(-10**30, 10**30)).map(str)
    wrong = st.sampled_from([None, True, 1, 1.5, [], {}])

    def form(monomials):
        return st.dictionaries(st.sampled_from(monomials), scalar,
                               max_size=3).map(form_text)

    quadrics = monomials_of_degree(2)
    params = st.tuples(scalar, scalar, scalar, scalar, form(quadrics),
                       form([e for e in quadrics if not e[0]]),
                       form([(0, 0, 2)]), scalar, scalar, scalar, scalar)
    t_text = st.one_of(scalar, st.sampled_from(["0", "1/0", "x", "", "1.5"]))
    t_values = st.lists(scalar.filter(lambda t: t != "0"), max_size=3)

    def with_chart_one(params, chart, t_values):
        params = list(params)
        if chart in "abcd":
            params[7 + "abcd".index(chart)] = "1"
        else:  # the q entry's coefficient at the chart monomial
            i = 4 + int(chart[1])
            params[i] = form_text({tuple(map(int, chart[3:-1].split(","))):
                                   1}) + " + " + params[i]
        return chart_family(params, chart, t_values)

    def broken(data, change):
        key, row, value = change
        data = json.loads(json.dumps(data))
        if row is None:
            data[key] = value
        elif row == "shape":
            data[key]["src_degrees"] = [3, 3]
        else:
            del data[key]["entries"][row]
        return data

    changes = st.one_of(
        st.tuples(st.sampled_from(["A", "B"]),
                  st.sampled_from(["shape", 0, 2]), st.none()),
        st.tuples(st.just("t_values"), st.none(),
                  st.one_of(st.lists(st.one_of(t_text, wrong), max_size=3),
                            wrong)),
        st.tuples(st.just("chart"), st.none(),
                  st.one_of(st.sampled_from(["e", "q0[9]", "q3[0,0,2]"]),
                            wrong)))
    well_formed = st.builds(with_chart_one, params, st.sampled_from(CHARTS),
                            t_values)
    json_values = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.text(max_size=4)),
        lambda c: st.one_of(st.lists(c, max_size=3),
                            st.dictionaries(st.sampled_from(
                                ["A", "B", "chart", "t_values"]), c,
                                max_size=3)),
        max_leaves=6)
    return st.one_of(
        well_formed,
        st.builds(chart_family, params, st.sampled_from(CHARTS), t_values),
        st.builds(broken, well_formed, changes),
        json_values)


def test_limit_family_file_fuzz(tmp_path, capsys):
    # every family is traced to its limit (exit 0) or refused with one
    # error line (exit 1, or 3 for an invariant), within a hang bound
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "family.json"

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(family_files(st), st.sampled_from(FIELDS))
    def answered_or_refused(payload, field):
        path.write_text(payload if isinstance(payload, RawJSON)
                        else json.dumps(payload))
        with hang_bound(10):
            code = cli.main(["limit", str(path), "--field", field])
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        lines = captured.err.splitlines()
        if code in (1, 3):
            assert captured.out == ""
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert "t -> 0 limit quartic: " in captured.out and not lines

    for args, payload, _ in MALFORMED.values():  # each a fixed example
        if args[0] == "limit":
            answered_or_refused = hypothesis.example(payload, "q")(
                answered_or_refused)
    # a t value whose denominator has 4,301 digits, too long to print
    tiny = chart_family(("0", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0"),
                        "a", ["0." + "0" * 4299 + "1"])
    answered_or_refused = hypothesis.example(tiny, "q")(answered_or_refused)
    # alpha of 4,000 digits: a limit of about 8,000-digit coefficients
    big = chart_family((SEVENS, "0", "0", "1", "x0^2", "0", "0", "1", "0",
                        "0", "0"), "a", ["1"])
    answered_or_refused = hypothesis.example(big, "q")(answered_or_refused)
    answered_or_refused()


def test_limit_refuses_a_t_value_too_long_to_print(tmp_path, capsys):
    # 0.<4,299 zeros>1 has parts of at most 4,300 digits, and the value
    # 1/10^4300 is refused by its literal, not when t is printed
    path = tmp_path / "family.json"
    t = "0." + "0" * 4299 + "1"
    path.write_text(json.dumps(chart_family(
        ("0", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0"), "a", [t])))
    assert cli.main(["limit", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: t_values[0]: {t!r} has over 4300 digits\n"


def test_field_option_fuzz(tmp_path, capsys):
    # every command answers every --field value with a documented exit
    # code: 0 or 2 with no error line, or 1 (3 for an invariant) with one;
    # the value is passed as --field=VALUE, so that argparse reads a value
    # such as "-x" as the field and not as an option
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    matrix = m01_matrix_file(tmp_path)
    commands = [["classify", matrix], ["limit", family_file(tmp_path)],
                ["betti", "M"], ["verify", "transition", "--alpha", "3"],
                ["verify", "poincare-corollary"],
                ["sample", "res0", "--count", "1"],
                ["sample", "res1", "--count", "1"]]
    fields = st.one_of(
        st.sampled_from(FIELDS + ["4", "9", "561", str(2**61 + 1), "1", "2",
                                  "0", "-3", "-101", str(2**62),
                                  str(2**62 + 135)]),
        st.integers(-10**20, 10**20).map(str),
        st.integers(2**62, 2**200).map(str),
        st.text(max_size=8))

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.sampled_from(commands), fields)
    @hypothesis.example(["betti", "M"], "9" * 5000)
    @hypothesis.example(["betti", "M"], "1" * 4301)
    @hypothesis.example(["sample", "res1", "--count", "1"], " 101 ")
    @hypothesis.example(["classify", matrix], "\u0661\u0660\u0661")  # 101
    def answered_or_refused(command, field):
        with hang_bound(10):
            code = cli.main(command + ["--field=" + field])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        if code in (1, 3):
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert code in (0, 2) and not lines, (code, lines)

    answered_or_refused()


# ---- a fuzz gate for verify transition --alpha ------------------------------

def alpha_texts(st):
    """Random --alpha values: integers and fractions of up to 40 digits,
    zero written as 0, -0 and 0/7, denominators that are multiples of 101,
    malformed fractions, floats, text, and integers of 4,300 and 4,301
    digits."""
    digits = st.integers(-10**40, 10**40)
    return st.one_of(
        digits.map(str),
        st.builds(F, digits, st.integers(1, 10**40)).map(str),
        st.builds(lambda n, k: f"{n}/{101 * k}", digits, st.integers(1, 9)),
        st.sampled_from(["0", "-0", "0/7", "1/-2", "1/0", "nan", "inf",
                         "-inf", "1.5", "1e3", "", " ", "x", "alpha",
                         "7" * 4300, "1" * 4301, "1/" + "3" * 4301]),
        st.text(max_size=6))


def test_verify_transition_alpha_fuzz(capsys):
    # every --alpha passes the verifier (exit 0) or is refused with one
    # error line (exit 1); a rational with no value in the field, its
    # denominator a multiple of p, is refused by its value and the field;
    # every other nonzero value passes, and its report prints in full,
    # unless it has over 4,300 digits above or below the line, as its text
    # or an exponent makes it, which is refused by a line naming the literal
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(alpha_texts(st), st.sampled_from(["q", "101"]))
    @hypothesis.example("1/101", "101")
    @hypothesis.example("-3/202", "101")
    @hypothesis.example("9" * 1000, "q")
    @hypothesis.example("9" * 1076, "q")  # alpha^4 has 4,304 digits
    @hypothesis.example("9" * 1075, "101")  # its value is below 101
    @hypothesis.example("9" * 1076, "101")  # 0 in GF(101): 10^4 = 1 there
    @hypothesis.example("1" * 4301, "101")
    @hypothesis.example("1e1100", "q")  # a 1,101-digit value
    @hypothesis.example("1e99999999", "q")
    @hypothesis.example("1e-99999999", "101")
    @hypothesis.example("1e5e99999999", "q")  # a bad mantissa, quoted as given
    def answered_or_refused(alpha, field):
        with hang_bound(10):
            code = cli.main(["verify", "transition", "--alpha=" + alpha,
                             "--field=" + field])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        # an exponent of 10^5 or more takes seconds to expand: only the
        # mantissa is read, and a nonzero one makes too long a value
        mantissa, e, exponent = alpha.strip().lower().partition("e")
        try:
            huge = bool(e) and abs(int(exponent)) >= 10**5
        except ValueError:
            huge = False
        try:
            value = F(mantissa + "e0" if huge else alpha.strip())
        except (ValueError, ZeroDivisionError):
            value = None
        unprintable = bool(value) and (huge or max(
            abs(value.numerator), value.denominator) >= 10**4300)
        if value and not unprintable \
                and (field == "q" or value.numerator * value.denominator % 101):
            assert code == 0, lines
        if code == 0:
            assert captured.out.startswith("[pass] transition") \
                and not lines
            assert value and (field == "q" or value.numerator % 101)
            return
        assert code == 1 and captured.out == "", code
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        if unprintable:
            assert lines[0] == f"error: {alpha.strip()!r} has over 4300 digits"
        elif "Invalid literal" in lines[0]:
            assert lines[0] == ("error: Invalid literal for Fraction: "
                                f"{alpha.strip()!r}")
        if field == "101" and value is not None \
                and not value.denominator % 101:
            assert f"error: {value} has no value in GF(101)" in lines[0]
        elif field == "101" and value and not unprintable \
                and not value.numerator % 101:
            assert lines[0] == "error: alpha must be nonzero"

    answered_or_refused()


# ---- what a command loads --------------------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")

LIST_MODULES = """
import runpy, sys
if len(sys.argv) == 1:
    import quarticmoduli
else:
    sys.argv[0] = "quarticmoduli"
    try:
        runpy.run_module("quarticmoduli.cli", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, exc.code
print(" ".join(sorted(m for m in sys.modules if m.startswith("quarticmoduli"))))
"""

STRATA_MODULES = {"quarticmoduli", "quarticmoduli.field", "quarticmoduli.poly",
                  "quarticmoduli.matrices", "quarticmoduli.gcd",
                  "quarticmoduli.strata"}


def loaded_modules(args):
    """The package modules a fresh interpreter holds after running the CLI
    with args, or after a bare ``import quarticmoduli`` when args is empty."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", LIST_MODULES, *args],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_each_command_loads_only_its_modules(tmp_path):
    # a fresh process compiles every module it imports, so a command that
    # loaded the whole package would pay for the modules it never runs
    assert loaded_modules([]) == {"quarticmoduli"}
    betti_modules = {"quarticmoduli", "quarticmoduli.field",
                     "quarticmoduli.betti"}
    assert loaded_modules(["betti", "M"]) == betti_modules
    expression = write_json(tmp_path / "expr.json", {
        "type": "product", "factors": [
            {"type": "projective", "n": 2},
            {"type": "literal", "name": "H", "coefficients": [1, 2, 1]}]})
    assert loaded_modules(["betti", expression]) == betti_modules
    assert loaded_modules(["classify", m01_matrix_file(tmp_path)]) \
        == STRATA_MODULES
    assert loaded_modules(["sample", "res0", "--field", "101",
                           "--count", "2"]) == STRATA_MODULES
    assert loaded_modules(["limit", family_file(tmp_path)]) \
        == STRATA_MODULES | {"quarticmoduli.degeneration"}
    assert loaded_modules(["verify", "transition"]) == {
        "quarticmoduli", "quarticmoduli.field", "quarticmoduli.poly",
        "quarticmoduli.matrices", "quarticmoduli.verify"}
