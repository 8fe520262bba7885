"""Command-line front end.

Subcommands: classify, limit, betti, verify, sample.  Text output by
default, JSON with --json; --field selects rationals ("q") or a prime
field; --seed (or the QML_SEED environment variable) drives every random
choice.

Each command reaches the library through the package's lazy exports, so a
fresh process loads only the modules that its command runs: ``betti M``
loads ``field`` and ``betti``, and ``classify`` no ``degeneration`` or
``verify``.
"""

import argparse
import contextlib
import json
import os
import random
import sys

import quarticmoduli as qm

from .field import GF, MAX_DIGITS, QQ, InvariantError, load_json


def _parse_field(text):
    if text == "q":
        return QQ
    if sum(map(str.isdigit, text)) > 19:  # 2^62 has 19 digits
        raise ValueError("--field has over 19 digits, unlike any prime < 2^62")
    try:
        p = int(text)
    except ValueError:
        raise ValueError("--field: not 'q' or an integer") from None
    return GF(p)


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
    env = os.environ.get("QML_SEED") or "0"
    try:  # counted first, whatever digit limit int() runs with
        if sum(map(str.isdigit, env)) <= MAX_DIGITS:
            return int(env)
    except ValueError:
        pass
    raise ValueError(f"QML_SEED: not an integer of up to {MAX_DIGITS} digits")


@contextlib.contextmanager
def _all_digits():
    """Print results exactly: a few times MAX_DIGITS digits, or fewer."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(args, json_obj, text):
    if args.json:
        print(json.dumps(json_obj, indent=2))
    else:
        print(text)


# ---- classify ----------------------------------------------------------


def cmd_classify(args):
    domain = _parse_field(args.field)
    data = load_json(args.matrix)
    src, tgt = qm.matrices.shape_from_json_dict(data)
    classify = qm.strata.classify_res1 if src == (3, 3) \
        else qm.strata.classify_res0
    # a matrix of neither shape is classified Invalid with no entry parsed
    report = classify(qm.matrices.matrix_from_json_dict(data, domain)
                      if (src, tgt) in qm.matrices.SHAPES.values() else None)
    with _all_digits():  # the text shows the JSON's fields, the ideal apart
        out = report.to_json_dict()
        point = "(" + ", ".join(out.get("point", ())) + ")"
        _emit(args, out, "\n".join(
            f"{key}: {point if key == 'point' else out[key]}" for key in
            ("label", "quartic", "point", "line", "cubic", "diagnostics")
            if out.get(key)))
    return 2 if report.label in (qm.strata.INVALID, qm.strata.NOT_STABLE) \
        else 0


# ---- limit -------------------------------------------------------------


def cmd_limit(args):
    domain = _parse_field(args.field)
    point, t_values = qm.degeneration.load_family(args.family, domain)
    trace = []
    for t in t_values:
        if not t:
            continue  # t = 0 is handled by the limit, not substitution
        report = qm.strata.classify_res0(point.total(t))
        trace.append({"t": str(t), "label": report.label})
    quartic, limit_point = qm.degeneration.family_limit(point)
    with _all_digits():
        limit = {"quartic": quartic.serialize(),
                 "point": [str(c) for c in limit_point]}
        lines = [f"t = {step['t']}: {step['label']}" for step in trace] + [
            f"t -> 0 limit quartic: {limit['quartic']}",
            f"t -> 0 limit point: ({', '.join(limit['point'])})"]
        _emit(args, {"schema": 1, "trace": trace, "limit": limit},
              "\n".join(lines))
    return 0


# ---- betti -------------------------------------------------------------

def cmd_betti(args):
    _parse_field(args.field)  # checked only: the coefficients are integers
    name = args.expr
    notes = []
    if name in qm.betti.BUILTIN_POLYS:
        poly = qm.betti.BUILTIN_POLYS[name]()
        if name == "M":
            notes.append(
                "palindromic of degree 17: "
                f"{qm.betti.is_palindromic(poly, 17)}"
            )
            notes.append(
                "the printed coefficient list omits the 16*q^6 term "
                "present in the assembled polynomial"
            )
    else:
        poly = _expression(name)
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
    """The Poincare polynomial of the variety named P<n>, or described by
    a JSON file."""
    if name.startswith("P") and name[1:].isdigit():
        data = {"type": "projective", "n": int(name[1:])}
    elif os.path.exists(name):
        data = load_json(name)
    else:
        raise ValueError(f"unknown builtin or missing file: {name!r}")
    return qm.betti.expression_poincare(data)[0]


# ---- verify ------------------------------------------------------------


def cmd_verify(args):
    # --field is the field of --alpha; every other verifier fixes its own
    domain = _parse_field(args.field)
    verifiers = qm.verify.ALL_VERIFIERS
    if args.all:
        names = list(verifiers)
    else:
        if args.name not in verifiers:
            raise ValueError(
                f"unknown verifier {args.name!r}; known: "
                + ", ".join(verifiers)
            )
        names = [args.name]
    seed = _seed_of(args)
    alpha = None  # read with its own digit bound, before any is lifted
    if args.alpha is not None and "transition" in names:
        alpha = domain.parse(args.alpha)
    with _all_digits():  # the report prints alpha^4
        reports = [qm.verify.verify_transition(alpha)
                   if name == "transition" and alpha is not None
                   else verifiers[name](seed) for name in names]
        json_obj = {
            "schema": 1,
            "reports": [r.to_json_dict() for r in reports],
            "all_passed": all(r.passed for r in reports),
        }
        _emit(args, json_obj, "\n".join(r.render_text() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


# ---- sample ------------------------------------------------------------


def cmd_sample(args):
    domain = _parse_field(args.field)
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    rng = random.Random(_seed_of(args))
    classify = qm.strata.classify_res1 if args.shape == "res1" \
        else qm.strata.classify_res0
    histogram = {}
    for _ in range(args.count):
        matrix = qm.matrices.random_matrix(args.shape, domain, rng=rng)
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
