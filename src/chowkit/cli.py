"""Command line interface.

Exit codes:
    0   success; every requested verification holds
    1   at least one verification failed
    2   usage or input errors (bad flags, malformed expressions, bad weights) or out of memory
    141 (killed by SIGPIPE) when the reader closes stdout early, as in ``| head``

Output is deterministic — no timing, timestamps or environment data is ever
printed — so identical invocations produce byte-identical output.

Every command checks its arguments and computes what its exit code needs (the
checks of ``verify``, the parse and normal form of ``ring reduce``), then
returns its output as pieces, made as they are taken; :func:`main` writes them
in batches.  Under ``--quiet`` nothing else is computed, and output that runs
out of memory part-way ends in exit 2 after what was already written.
"""

from __future__ import annotations

import argparse
import functools
import re
import signal
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice

from .dr import _dr_pieces, _dump, _json_array
from .parsing import ParseError, parse
from .poly import exact_text, format_polynomial
from .ring import make_context
from .zero_section import VerificationReport, coefficient_table, verify_all, verify_eta_alpha, verify_invariance, verify_main, verify_triangular

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
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines joined by newlines, one line at a time."""
    lines = iter(lines)
    return chain(islice(lines, 1), ("\n" + line for line in lines))


def _json_entries(payload: dict, entries: Iterable) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` with its last value, an empty list, filled
    with ``entries``, each one's own indented dump made as it is taken."""
    yield from _json_array(payload, (",\n    " + _dump(entry, "\n    ") for entry in entries))


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


def cmd_verify(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    if args.max_genus is None and args.genus is None:
        raise ValueError("verify needs --genus or --max-genus")
    genera = list(range(1, args.max_genus + 1)) if args.max_genus else [args.genus]
    reports = [report for g in genera for report in _VERIFIERS[args.which](g)]
    failed = sum(1 for report in reports if not report.holds)
    code = 1 if failed else 0
    if args.json:  # the reports' text is made as the output is taken, as in the text form
        payload = {"command": "verify", "which": args.which, "genera": genera, "results": reports, "all_hold": not failed}
        return code, (_dump({**p, "results": [report.to_dict() for report in reports]}, "\n") for p in [payload])
    last = f"{failed} of {len(reports)} checks FAILED" if failed else "all checks hold"
    return code, _lines(chain(map(VerificationReport.summary, reports), [last]))


# ------------------------------------------------------------------ ring


def cmd_ring(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    ctx, g = make_context(args.genus), args.genus
    payload = {"command": "ring", "action": args.action, "genus": g}
    if args.action == "reduce":
        if args.expr is None:
            raise ValueError("ring reduce needs an expression argument")
        try:
            reduced = format_polynomial(parse(args.expr, ring=ctx))
        except ParseError as exc:
            raise ValueError(f"cannot parse expression: {exc}") from None
        return 0, iter([_dump({**payload, "input": args.expr, "normal_form": reduced}, "\n") if args.json else reduced])
    # Every other action is one list, made an entry at a time; each text line is read off its entry.
    if args.action == "dims":
        key, entries = "dims", (ctx.dim_graded(k) for k in range(2 * g))
        lines = (f"k={k}: {dim}" for k, dim in enumerate(entries))
    elif args.action == "pairing":
        matrix = lambda k: [[exact_text(x) if x else "0" for x in row] for row in ctx.pairing_gram(k)]  # noqa: E731
        key, entries = "pairings", ({"k": k, "matrix": matrix(k), "determinant": exact_text(ctx.pairing_determinant(k))} for k in range(g))
        lines = (f"k={e['k']}: determinant {e['determinant']}" + "".join(f"\n  [{' '.join(row)}]" for row in e["matrix"]) for e in entries)
    else:  # action == "relations"; at large genus one relation is megabytes of text
        key, entries = "relations", ({"d_grade": l, "polynomial": format_polynomial(ctx.relation(l))} for l in ctx.relation_grades)
        lines = (f"l={e['d_grade']}: {e['polynomial']}" for e in entries)
    return 0, _json_entries({**payload, key: []}, entries) if args.json else _lines(lines)


# ------------------------------------------------------------------ coeffs


def cmd_coeffs(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    names = [name for name in ("alpha", "eta") if args.table in (name, "both")]
    headers = ["a", "b", "c", *names]

    def rows() -> Iterator[dict]:
        table = coefficient_table(args.genus)
        for a, b, c in table.triples():
            yield {"a": a, "b": b, "c": c, **{name: exact_text(getattr(table, name)[a, b, c]) for name in names}}

    def lines() -> Iterator[str]:
        # The header line is one more row of the table, its cells the column names; each
        # column is as wide as its widest cell, found by a first pass over the rows.
        widths = {h: len(h) for h in headers}
        for row in rows():
            widths.update((h, max(widths[h], len(str(row[h])))) for h in headers)
        for cells in chain([dict(zip(headers, headers))], rows()):
            yield "  ".join(str(cells[h]).ljust(widths[h]) for h in headers).rstrip()

    payload = {"command": "coeffs", "genus": args.genus, "table": args.table, "rows": []}
    return 0, _json_entries(payload, rows()) if args.json else _lines(lines())


# ------------------------------------------------------------------ dr


def cmd_dr(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    return 0, _dr_pieces(args.genus, args.weights, args.format, args.compact_type)  # checks the arguments, walks nothing


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
    p_verify.add_argument("--which", choices=sorted(_VERIFIERS), default="all", help="which identity family to verify (default: all)")

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


_WRITE_SIZE = 1 << 14  # characters a stdout write aims at


def _write(pieces: Iterator[str]) -> None:
    """Write ``pieces`` and a newline to stdout, joined in batches as they are made.  A batch
    grows at most twofold, so that short first pieces cannot make it hold many long ones."""
    count = 1  # pieces per write, rescaled after each write towards _WRITE_SIZE characters
    while batch := list(islice(pieces, count)):
        sys.stdout.write(text := "".join(batch))
        count = max(1, min(2 * count, count * _WRITE_SIZE // (len(text) + 1)))
        del batch, text  # neither outlives its write while the next batch is made
    sys.stdout.write("\n")


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
        code, pieces = command(args)
        if not args.quiet:
            _write(pieces)
        return code
    except (ValueError, MemoryError) as exc:
        message = str(exc) if isinstance(exc, ValueError) else "out of memory: the result does not fit in the memory at hand"
        print(f"error: {message}", file=sys.stderr)
        return 2


def entry() -> None:
    # A reader that closes the pipe early (`| head`) ends the process as it does any filter.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv[1:]))
