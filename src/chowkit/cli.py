"""Command line interface.

Exit codes:
    0   success; every requested verification holds
    1   at least one verification failed
    2   usage or input errors: bad flags, malformed expressions, bad weights

Output is deterministic — no timing, timestamps or environment data is ever
printed — so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dr import dr_class, serialize, specialize_compact_type
from .linalg import determinant
from .parsing import ParseError, parse
from .poly import format_polynomial
from .ring import make_context
from .zero_section import (
    coefficient_table,
    verify_all,
    verify_eta_alpha,
    verify_invariance,
    verify_main,
    verify_triangular,
)

__all__ = ["entry", "main"]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _weight_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _emit(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        print(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ verify


_VERIFIERS = {
    "main": lambda g: [verify_main(g)],
    "eta": lambda g: [verify_eta_alpha(g)],
    "triangular": lambda g: [verify_triangular(g)],
    "invariance": lambda g: verify_invariance(g),
    "all": lambda g: verify_all(g),
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_genus is None and args.genus is None:
        return _usage_error("verify needs --genus or --max-genus")
    genera = list(range(1, args.max_genus + 1)) if args.max_genus else [args.genus]
    reports = [report for g in genera for report in _VERIFIERS[args.which](g)]
    all_hold = all(report.holds for report in reports)
    if args.json:
        _emit_json(
            args,
            {
                "command": "verify",
                "which": args.which,
                "genera": genera,
                "results": [report.to_dict() for report in reports],
                "all_hold": all_hold,
            },
        )
    else:
        for report in reports:
            _emit(args, report.summary())
        failed = sum(1 for report in reports if not report.holds)
        _emit(args, "all checks hold" if all_hold else f"{failed} of {len(reports)} checks FAILED")
    return 0 if all_hold else 1


# ------------------------------------------------------------------ ring


def cmd_ring(args: argparse.Namespace) -> int:
    ctx = make_context(args.genus)
    g = args.genus
    header = {"command": "ring", "action": args.action, "genus": g}
    if args.action == "dims":
        dims = [ctx.dim_graded(k) for k in range(2 * g)]
        if args.json:
            _emit_json(args, {**header, "dims": dims})
        else:
            for k, value in enumerate(dims):
                _emit(args, f"k={k}: {value}")
        return 0
    if args.action == "pairing":
        blocks = []
        for k in range(g):
            matrix = ctx.pairing_matrix(k)
            blocks.append((k, matrix, determinant(matrix)))
        if args.json:
            pairings = [
                {"k": k, "matrix": [[str(entry) for entry in row] for row in matrix], "determinant": str(det)}
                for k, matrix, det in blocks
            ]
            _emit_json(args, {**header, "pairings": pairings})
        else:
            for k, matrix, det in blocks:
                _emit(args, f"k={k}: determinant {det}")
                for row in matrix:
                    _emit(args, "  [" + " ".join(str(entry) for entry in row) + "]")
        return 0
    if args.action == "relations":
        rendered = [(l, format_polynomial(ctx.relation(l))) for l in ctx.relation_grades]
        if args.json:
            relations = [{"d_grade": l, "polynomial": text} for l, text in rendered]
            _emit_json(args, {**header, "relations": relations})
        else:
            for l, text in rendered:
                _emit(args, f"l={l}: {text}")
        return 0
    # action == "reduce"
    if args.expr is None:
        return _usage_error("ring reduce needs an expression argument")
    # Degree d >= 2g lands in R_d or xi*R_(d-1), both zero: R_k = 0 for k >= 2g-1.
    try:
        polynomial = parse(args.expr, max_degree=2 * g - 1)
    except ParseError as exc:
        return _usage_error(f"cannot parse expression: {exc}")
    reduced = format_polynomial(ctx.normal_form(polynomial))
    if args.json:
        _emit_json(args, {**header, "input": args.expr, "normal_form": reduced})
    else:
        _emit(args, reduced)
    return 0


# ------------------------------------------------------------------ coeffs


def cmd_coeffs(args: argparse.Namespace) -> int:
    table = coefficient_table(args.genus)
    rows = []
    for triple in table.triples():
        row: dict = {"a": triple[0], "b": triple[1], "c": triple[2]}
        if args.table in ("alpha", "both"):
            row["alpha"] = str(table.alpha[triple])
        if args.table in ("eta", "both"):
            row["eta"] = str(table.eta[triple])
        rows.append(row)
    if args.json:
        _emit_json(args, {"command": "coeffs", "genus": args.genus, "table": args.table, "rows": rows})
        return 0
    headers = ["a", "b", "c"] + [name for name in ("alpha", "eta") if name in rows[0]]
    widths = {h: max(len(h), max(len(str(row[h])) for row in rows)) for h in headers}
    _emit(args, "  ".join(h.ljust(widths[h]) for h in headers).rstrip())
    for row in rows:
        _emit(args, "  ".join(str(row[h]).ljust(widths[h]) for h in headers).rstrip())
    return 0


# ------------------------------------------------------------------ dr


def cmd_dr(args: argparse.Namespace) -> int:
    cls = dr_class(args.genus, args.weights)
    if args.compact_type:
        cls = specialize_compact_type(cls)
    _emit(args, serialize(cls, args.format))
    return 0


# ------------------------------------------------------------------ wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--quiet", action="store_true", help="suppress output (exit code carries the result)")

    parser = argparse.ArgumentParser(
        prog="chowkit",
        description="Exact calculator for the boundary Chow subring, its zero-section identities, and double-ramification classes.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = subparsers.add_parser("verify", parents=[common], help="run exact identity verifications")
    scope = p_verify.add_mutually_exclusive_group()
    scope.add_argument("--genus", type=_positive_int, help="genus to verify")
    scope.add_argument("--max-genus", type=_positive_int, help="verify every genus from 1 to this bound")
    p_verify.add_argument(
        "--which",
        choices=sorted(_VERIFIERS),
        default="all",
        help="which identity family to verify (default: all)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_ring = subparsers.add_parser("ring", parents=[common], help="inspect the quotient ring at one genus")
    p_ring.add_argument("--genus", type=_positive_int, required=True)
    p_ring.add_argument("action", choices=["dims", "pairing", "relations", "reduce"])
    p_ring.add_argument("expr", nargs="?", help="expression to reduce (for the reduce action)")
    p_ring.set_defaults(func=cmd_ring)

    p_coeffs = subparsers.add_parser("coeffs", parents=[common], help="print the coefficient tables")
    p_coeffs.add_argument("--genus", type=_positive_int, required=True)
    p_coeffs.add_argument("--table", choices=["alpha", "eta", "both"], default="both")
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_dr = subparsers.add_parser("dr", parents=[common], help="expand a double-ramification class")
    p_dr.add_argument("--genus", type=_positive_int, required=True)
    p_dr.add_argument("--weights", type=_weight_vector, required=True, help="comma-separated integers summing to zero")
    p_dr.add_argument("--format", choices=["json", "latex"], default="json")
    p_dr.add_argument("--compact-type", action="store_true", help="restrict to curves of compact type")
    p_dr.set_defaults(func=cmd_dr)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        return _usage_error(str(exc))


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
