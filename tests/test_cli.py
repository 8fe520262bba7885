import contextlib
import json
import signal
import time
from fractions import Fraction as F

import pytest

from quarticmoduli import cli, strata
from quarticmoduli.degeneration import make_blowup_chart_point
from quarticmoduli.field import QQ, InvariantError
from quarticmoduli.matrices import make_matrix
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


def test_sample_requires_prime_field(capsys):
    code = cli.main(["sample", "res0"])
    assert code == 1
    assert "prime field" in capsys.readouterr().err
    # random_form draws over QQ, but sample still refuses it
    code = cli.main(["sample", "res1", "--field", "q", "--count", "3"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: sampling needs a prime field; pass --field <prime>\n")


def test_sample_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QML_SEED", "4")
    cli.main(["sample", "res0", "--field", "101", "--count", "30", "--json"])
    via_env = json.loads(capsys.readouterr().out)
    monkeypatch.delenv("QML_SEED")
    cli.main(["sample", "res0", "--field", "101", "--seed", "4",
              "--count", "30", "--json"])
    via_flag = json.loads(capsys.readouterr().out)
    assert via_env == via_flag


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


def nested_product(depth):
    expr = {"type": "projective", "n": 1}
    for _ in range(depth):
        expr = {"type": "product", "factors": [expr]}
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
                            "error: entry (0,0): the power 2^999999999 "
                            "exceeds 10000 bits"),
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
    "family integer t": (["limit", FILE], family(["t_values"], [1]),
                         "t_values[0]: expected a string, got int"),
    "family zero denominator": (["limit", FILE], family(["t_values"], ["1/0"]),
                                "t_values[0]:"),
    "family integer chart": (["limit", FILE], family(["chart"], 5),
                             "chart: expected a string"),
    "expression list": (["betti", FILE], [],
                        "expected a JSON object, got list"),
    "expression without type": (["betti", FILE], {"n": 2},
                                "type: unknown expression type None"),
    "text dimension": (["betti", FILE], {"type": "projective", "n": "3"},
                       "n: expected an integer, got str"),
    "literal number": (["betti", FILE], {"type": "literal", "coefficients": 5},
                       "coefficients: expected a list, got int"),
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
    "huge projective space": (["betti", "P1000000000"], None,
                              "dimension 1000000000 exceeds the limit"),
    "huge projective expression": (["betti", FILE],
                                   {"type": "projective", "n": 1000000000},
                                   "dimension 1000000000 exceeds the limit"),
    "alpha zero denominator": (["verify", "transition", "--alpha", "1/0"],
                               None, "Fraction(1, 0)"),
    "negative count": (["sample", "res0", "--field", "101", "--count", "-5"],
                       None, "--count must be at least 1"),
    "zero count": (["sample", "res1", "--field", "101", "--count", "0"],
                   None, "--count must be at least 1"),
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
