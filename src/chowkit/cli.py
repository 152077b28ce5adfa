"""Command line interface.

Exit codes:
    0   success; every requested verification holds
    1   at least one verification failed
    2   usage or input errors (bad flags, malformed expressions, bad weights) or out of memory
    141 (killed by SIGPIPE) when the reader closes stdout early, as in ``| head``

Output is deterministic — no timing, timestamps or environment data is ever
printed — so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import signal
import sys
from itertools import islice

from .dr import _dr_pieces
from .parsing import ParseError, parse
from .poly import exact_text, format_polynomial
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


def _integer(text: str) -> int:
    """ASCII digits with one optional sign: int() also reads other scripts' digits and ``_``."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    try:
        value = _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _weight_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(_integer(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _show(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    """Print a command's result: nothing under --quiet, ``payload`` as JSON under --json, else ``lines``."""
    if not args.quiet:
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ verify


# Each verifier is looked up by name at call time, so a wrapper installed on
# this module's name after import (as the benchmark's tracer does) runs.
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
    failed = sum(1 for report in reports if not report.holds)
    payload = {
        "command": "verify",
        "which": args.which,
        "genera": genera,
        "results": [report.to_dict() for report in reports],
        "all_hold": not failed,
    }
    lines = [report.summary() for report in reports]
    lines.append(f"{failed} of {len(reports)} checks FAILED" if failed else "all checks hold")
    _show(args, payload, lines)
    return 1 if failed else 0


# ------------------------------------------------------------------ ring


def cmd_ring(args: argparse.Namespace) -> int:
    ctx = make_context(args.genus)
    g = args.genus
    payload: dict = {"command": "ring", "action": args.action, "genus": g}
    if args.action == "dims":
        payload["dims"] = [ctx.dim_graded(k) for k in range(2 * g)]
        lines = [f"k={k}: {value}" for k, value in enumerate(payload["dims"])]
    elif args.action == "pairing":
        payload["pairings"] = []
        lines = []
        for k in range(g):
            entries = [[exact_text(entry) if entry else "0" for entry in row] for row in ctx.pairing_gram(k)]
            det = exact_text(ctx.pairing_determinant(k))
            payload["pairings"].append({"k": k, "matrix": entries, "determinant": det})
            lines.append(f"k={k}: determinant {det}")
            lines.extend("  [" + " ".join(row) + "]" for row in entries)
    elif args.action == "relations":
        # Each relation is written as it is made: at large genus one relation is megabytes of text.
        if args.quiet:
            return 0
        if args.json:  # json.dumps(payload, indent=2), its relations array written entry by entry
            print(json.dumps(payload, indent=2)[: -len("\n}")] + ',\n  "relations": [', end="")
        for i, l in enumerate(ctx.relation_grades):
            text = format_polynomial(ctx.relation(l))
            if args.json:
                print(f'{"," if i else ""}\n    {{\n      "d_grade": {l},\n      "polynomial": {json.dumps(text)}\n    }}', end="")
            else:
                print(f"l={l}:", text)
        if args.json:
            print("\n  ]\n}")
        return 0
    else:  # action == "reduce"
        if args.expr is None:
            return _usage_error("ring reduce needs an expression argument")
        try:
            reduced = format_polynomial(ctx.normal_form(parse(args.expr, multiply=ctx.multiply_numerators)))
        except ParseError as exc:
            return _usage_error(f"cannot parse expression: {exc}")
        payload.update(input=args.expr, normal_form=reduced)
        lines = [reduced]
    _show(args, payload, lines)
    return 0


# ------------------------------------------------------------------ coeffs


def cmd_coeffs(args: argparse.Namespace) -> int:
    table = coefficient_table(args.genus)
    names = [name for name in ("alpha", "eta") if args.table in (name, "both")]
    rows = [
        {"a": a, "b": b, "c": c, **{name: exact_text(getattr(table, name)[a, b, c]) for name in names}}
        for a, b, c in table.triples()
    ]
    headers = ["a", "b", "c", *names]
    # The header line is one more row of the table, its cells the column names.
    grid = [{h: h for h in headers}] + [{h: str(row[h]) for h in headers} for row in rows]
    widths = {h: max(len(cells[h]) for cells in grid) for h in headers}
    lines = ["  ".join(cells[h].ljust(widths[h]) for h in headers).rstrip() for cells in grid]
    _show(args, {"command": "coeffs", "genus": args.genus, "table": args.table, "rows": rows}, lines)
    return 0


# ------------------------------------------------------------------ dr


_WRITE_SIZE = 1 << 18  # characters a stdout write aims at, a quarter of the 1 MiB one may take


def cmd_dr(args: argparse.Namespace) -> int:
    pieces = _dr_pieces(args.genus, args.weights, args.format, args.compact_type)  # checks the arguments, walks nothing
    if not args.quiet:
        count = 64  # pieces per write, rescaled after each write towards _WRITE_SIZE characters
        while batch := list(islice(pieces, count)):
            sys.stdout.write(text := "".join(batch))
            count = max(1, count * _WRITE_SIZE // (len(text) + 1))
        sys.stdout.write("\n")
    return 0


# ------------------------------------------------------------------ wiring


@functools.cache  # one parser per process: main copies argv and sets args.expr on the namespace
def _build_parser() -> argparse.ArgumentParser:
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress output (exit code carries the result)")
    # dr picks its output form with --format, so only the other commands take --json.
    output = argparse.ArgumentParser(add_help=False, parents=[quiet])
    output.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    parser = argparse.ArgumentParser(
        prog="chowkit",
        description="Exact calculator for the boundary Chow subring, its zero-section identities, and double-ramification classes.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = subparsers.add_parser("verify", parents=[output], help="run exact identity verifications")
    scope = p_verify.add_mutually_exclusive_group()
    scope.add_argument("--genus", type=_positive_int, help="genus to verify")
    scope.add_argument("--max-genus", type=_positive_int, help="verify every genus from 1 to this bound")
    p_verify.add_argument(
        "--which",
        choices=sorted(_VERIFIERS),
        default="all",
        help="which identity family to verify (default: all)",
    )

    p_ring = subparsers.add_parser("ring", parents=[output], help="inspect the quotient ring at one genus")
    p_ring.add_argument("--genus", type=_positive_int, required=True)
    p_ring.add_argument("action", choices=["dims", "pairing", "relations", "reduce"])
    p_ring.add_argument("expr", nargs="?", help="expression to reduce (for the reduce action)")

    p_coeffs = subparsers.add_parser("coeffs", parents=[output], help="print the coefficient tables")
    p_coeffs.add_argument("--genus", type=_positive_int, required=True)
    p_coeffs.add_argument("--table", choices=["alpha", "eta", "both"], default="both")

    p_dr = subparsers.add_parser("dr", parents=[quiet], help="expand a double-ramification class")
    p_dr.add_argument("--genus", type=_positive_int, required=True)
    p_dr.add_argument("--weights", type=_weight_vector, required=True, help="comma-separated integers summing to zero")
    p_dr.add_argument("--format", choices=["json", "latex"], default="json")
    p_dr.add_argument("--compact-type", action="store_true", help="restrict to curves of compact type")

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    # argparse takes a value that starts with "-" ("-1,1", "-T1") for an unknown option, so the
    # token after --weights is its value, and one leftover token is `ring reduce`'s expression.
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--weights" in argv[:-1]:
        at = argv.index("--weights")
        argv[at : at + 2] = [f"--weights={argv[at + 1]}"]
    try:
        args, extra = parser.parse_known_args(argv)
        if len(extra) == 1 and args.subcommand == "ring" and args.action == "reduce" and args.expr is None:
            args.expr = extra.pop()
        if extra:
            parser.error("unrecognized arguments: " + " ".join(extra))
        if args.subcommand == "ring" and args.action != "reduce" and args.expr is not None:
            parser.error(f"ring {args.action} takes no expression, got {args.expr!r}")
    except SystemExit as exc:
        return int(exc.code or 0)
    command = {"verify": cmd_verify, "ring": cmd_ring, "coeffs": cmd_coeffs, "dr": cmd_dr}[args.subcommand]
    try:
        return command(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    except MemoryError:
        return _usage_error("out of memory: the result does not fit in the memory at hand")


def entry() -> None:
    # A reader that closes the pipe early (`| head`) ends the process as it does any filter.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv[1:]))
