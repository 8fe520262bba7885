"""Command-line front end.

Subcommands: classify, limit, betti, verify, sample.  Text output by
default, JSON with --json; --field selects rationals ("q") or a prime
field; --seed (or the QML_SEED environment variable) drives every random
choice.
"""

import argparse
import json
import os
import random
import sys

from .betti import (
    BlowUpSubstitute,
    Literal,
    PoincarePoly,
    Product,
    ProjBundle,
    ProjectiveSpace,
    is_palindromic,
    poincare_M,
    poincare_open_stratum_closure,
    poincare_projective,
)
from .degeneration import family_limit, load_family
from .field import GF, QQ, InvariantError
from .matrices import (
    check_json_list,
    check_json_type,
    load_json,
    load_matrix,
    random_matrix,
)
from .strata import INVALID, NOT_STABLE, classify_res0, classify_res1
from .verify import ALL_VERIFIERS, verify_transition


def _parse_field(text):
    if text == "q":
        return QQ
    return GF(int(text))


def _common_flags(parser):
    parser.add_argument(
        "--field",
        default="q",
        help="coefficient field: 'q' for rationals or a prime (default: q)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed (default: QML_SEED environment variable, else 0)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )


def _seed_of(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QML_SEED")
    return int(env) if env else 0


def _emit(args, json_obj, text):
    if args.json:
        print(json.dumps(json_obj, indent=2))
    else:
        print(text)


# ---- classify ----------------------------------------------------------


def cmd_classify(args):
    domain = _parse_field(args.field)
    matrix = load_matrix(args.matrix, domain)
    if matrix.src_degrees == (3, 3):
        report = classify_res1(matrix)
    else:
        report = classify_res0(matrix)
    text_lines = [f"label: {report.label}"]
    if report.quartic is not None:
        text_lines.append(f"quartic: {report.quartic.serialize()}")
    if report.point is not None:
        text_lines.append(
            "point: (" + ", ".join(str(c) for c in report.point) + ")"
        )
    if report.line is not None:
        text_lines.append(f"line: {report.line.serialize()}")
    if report.cubic is not None:
        text_lines.append(f"cubic: {report.cubic.serialize()}")
    if report.diagnostics:
        text_lines.append(f"diagnostics: {report.diagnostics}")
    _emit(args, report.to_json_dict(), "\n".join(text_lines))
    return 2 if report.label in (INVALID, NOT_STABLE) else 0


# ---- limit -------------------------------------------------------------


def cmd_limit(args):
    domain = _parse_field(args.field)
    point, t_values = load_family(args.family, domain)
    trace = []
    for t in t_values:
        if not t:
            continue  # t = 0 is handled by the limit, not substitution
        report = classify_res0(point.total(t))
        trace.append({"t": str(t), "label": report.label})
    quartic, limit_point = family_limit(point)
    json_obj = {
        "schema": 1,
        "trace": trace,
        "limit": {
            "quartic": quartic.serialize(),
            "point": [str(c) for c in limit_point],
        },
    }
    lines = [f"t = {step['t']}: {step['label']}" for step in trace]
    lines.append(f"t -> 0 limit quartic: {quartic.serialize()}")
    lines.append(
        "t -> 0 limit point: ("
        + ", ".join(str(c) for c in limit_point)
        + ")"
    )
    _emit(args, json_obj, "\n".join(lines))
    return 0


# ---- betti -------------------------------------------------------------

# the largest dimension of a space whose Poincare polynomial betti computes;
# the spaces of the construction have dimension at most 17
MAX_BETTI_DIMENSION = 1_000

_BUILTIN_POLYS = {
    "H": lambda: PoincarePoly([1, 2, 5, 6, 5, 2, 1]),
    "N": poincare_open_stratum_closure,
    "B": lambda: poincare_open_stratum_closure() * poincare_projective(11),
    "M": poincare_M,
}


def expr_from_json_dict(data):
    """Build a variety expression from its JSON description; malformed
    input raises a ValueError that names its JSON path."""
    check_json_type(data, "", dict)
    kind = data.get("type")
    if kind == "projective":
        return ProjectiveSpace(check_json_type(data.get("n"), "n", int))
    if kind == "product":
        factors = check_json_type(data.get("factors"), "factors", list)
        return Product(*[_sub_expr(f, f"factors[{i}]")
                         for i, f in enumerate(factors)])
    if kind == "projbundle":
        return ProjBundle(_sub_expr(data.get("base"), "base"),
                          check_json_type(data.get("rank"), "rank", int))
    if kind == "substitute":
        return BlowUpSubstitute(*[_sub_expr(data.get(key), key)
                                  for key in ("total", "removed", "inserted")])
    if kind == "literal":
        return Literal(data.get("name", "literal"), PoincarePoly(
            check_json_list(data.get("coefficients"), "coefficients", int)))
    raise ValueError(f"type: unknown expression type {kind!r}; known: "
                     "literal, product, projbundle, projective, substitute")


def _sub_expr(data, path):
    try:
        return expr_from_json_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_betti(args):
    name = args.expr
    notes = []
    if name in _BUILTIN_POLYS:
        poly = _BUILTIN_POLYS[name]()
        if name == "M":
            notes.append(
                "palindromic of degree 17: "
                f"{is_palindromic(poly, 17)}"
            )
            notes.append(
                "the printed coefficient list omits the 16*q^6 term "
                "present in the assembled polynomial"
            )
    else:
        poly = _expression(name).poincare()
    json_obj = {
        "schema": 1,
        "expr": name,
        "coefficients": list(poly.coefficients),
        "notes": notes,
    }
    lines = [poly.serialize()] + notes
    _emit(args, json_obj, "\n".join(lines))
    return 0


def _expression(name):
    """The variety named P<n>, or described by a JSON file, refused above
    MAX_BETTI_DIMENSION before its polynomial is computed."""
    if name.startswith("P") and name[1:].isdigit():
        expr = ProjectiveSpace(int(name[1:]))
    elif os.path.exists(name):
        try:
            expr = expr_from_json_dict(load_json(name))
        except RecursionError:
            raise ValueError("expression nested too deeply") from None
    else:
        raise ValueError(f"unknown builtin or missing file: {name!r}")
    if expr.dimension() > MAX_BETTI_DIMENSION:
        raise ValueError(f"dimension {expr.dimension()} exceeds the limit "
                         f"of {MAX_BETTI_DIMENSION}")
    return expr


# ---- verify ------------------------------------------------------------


def cmd_verify(args):
    if args.all:
        names = list(ALL_VERIFIERS)
    else:
        if args.name not in ALL_VERIFIERS:
            raise ValueError(
                f"unknown verifier {args.name!r}; known: "
                + ", ".join(ALL_VERIFIERS)
            )
        names = [args.name]
    seed = _seed_of(args)
    reports = []
    for name in names:
        if name == "transition" and args.alpha is not None:
            domain = _parse_field(args.field)
            reports.append(verify_transition(domain.parse(args.alpha)))
        else:
            reports.append(ALL_VERIFIERS[name](seed))
    json_obj = {
        "schema": 1,
        "reports": [r.to_json_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    text = "\n".join(r.render_text() for r in reports)
    _emit(args, json_obj, text)
    return 0 if all(r.passed for r in reports) else 1


# ---- sample ------------------------------------------------------------


def cmd_sample(args):
    domain = _parse_field(args.field)
    if not domain.modulus:
        raise ValueError("sampling needs a prime field; pass --field <prime>")
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    rng = random.Random(_seed_of(args))
    classify = classify_res1 if args.shape == "res1" else classify_res0
    histogram = {}
    for _ in range(args.count):
        matrix = random_matrix(args.shape, domain, rng=rng)
        report = classify(matrix)
        histogram[report.label] = histogram.get(report.label, 0) + 1
    json_obj = {
        "schema": 1,
        "shape": args.shape,
        "count": args.count,
        "histogram": dict(sorted(histogram.items())),
    }
    text = "\n".join(
        f"{label}: {count}" for label, count in sorted(histogram.items())
    )
    _emit(args, json_obj, text)
    return 0


# ---- entry point -------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quarticmoduli",
        description="exact computations around the moduli of plane-quartic "
        "sheaves: stratum classification, boundary degenerations, Betti "
        "numbers, and printed-identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a presentation matrix file")
    p.add_argument("matrix", help="path to a matrix JSON file")
    _common_flags(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("limit", help="trace a one-parameter family to t = 0")
    p.add_argument("family", help="path to a family JSON file")
    _common_flags(p)
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("betti", help="print a Poincare polynomial")
    p.add_argument(
        "expr",
        help="builtin name (M, B, N, H, Pn) or an expression JSON file",
    )
    _common_flags(p)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("verify", help="replay printed matrix identities")
    p.add_argument("name", nargs="?", help="verifier name")
    p.add_argument("--all", action="store_true", help="run every verifier")
    p.add_argument("--alpha", help="scalar for the transition verifier")
    _common_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "sample", help="classify random matrices and print a histogram"
    )
    p.add_argument("shape", choices=["res0", "res1"])
    p.add_argument("--count", type=int, default=100)
    _common_flags(p)
    p.set_defaults(fn=cmd_sample)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.all and not args.name:
        parser.error("verify needs a name or --all")
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
