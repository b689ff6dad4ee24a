"""Command-line frontend: analyze / verify / generate / enumerate / oracle.

All subcommands consume graph6 (one graph per line, file or stdin) and emit
JSON lines or CSV on stdout.  Exit codes: 0 all good, 1 bound violation,
internal error or realization failure, 2 input error, 3 a check was skipped
on budget with --strict.

``verify``, ``analyze`` and ``oracle`` run one loop: the input is parsed
first, then each record is written as its graph finishes, in input order
for any ``--jobs``; parse errors, violations and internal errors go to
stderr after the last record.  A reader that closes stdout early also gets
exit code 1, with nothing on stderr.

A graph whose solvers fail a witness re-check or a cross-check (an internal
error) gets one record in place of its own, ``{"index", "graph6", "n",
"internal_error"}`` in JSON and a row whose error columns read ``internal
error: ...`` in CSV, plus an ``INTERNAL ERROR`` line on stderr; the run goes
on to the other graphs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import TextIO

from .budget import Budget, BudgetExceededError, DEFAULT_EXPANSIONS
from .bounds import (
    _ANALYZE_FIELDS,
    CHECK_NAMES,
    CheckResult,
    InternalError,
    _analyze_worker,
    _corpus_records,
    _verify_worker,
    report_to_dict,
    summarize,
)
from .graph6 import Graph6Error, enumerate_labeled_graphs, to_graph6
from .indpoly import _value_at, oracle_polynomial

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

ENUMERATE_MAX_N = 6


def _read_lines(path: str) -> list[str]:
    """Lines of a file, or of stdin for ``-``, decoded the same way for both.

    Bytes outside ASCII survive as lone surrogates, so the graph6 parser
    reports them against their line instead of the read failing.  A closed
    stdin (``sys.stdin`` is None) is an unreadable file.
    """
    if path == "-":
        if sys.stdin is None:
            raise OSError("stdin is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="surrogateescape")
    return text.readlines()


_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def _emit_json(out, record: dict) -> None:
    out.write(_COMPACT_JSON.encode(record) + "\n")


def _internal_error_row(header, error: InternalError) -> list[str]:
    """A CSV row for ``error``: index, graph6 and n, every column named
    ``error`` or ``*_error`` holding the message, the rest blank."""
    known = {"index": error.index, "graph6": error.graph6, "n": error.n}
    message = f"internal error: {error.internal_error}"
    return [
        str(known[k]) if k in known else message if k.endswith("error") else ""
        for k in header
    ]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _written(records, out, fmt: str, header, to_json=None, to_row=None):
    """Write each record as it arrives, as a JSON line or a CSV row under
    ``header``, then pass it on.  A record is a dict keyed by ``header``
    unless ``to_json`` or ``to_row`` gives its JSON object or CSV cells; an
    :class:`InternalError` is written as its own record."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for record in records:
            if isinstance(record, InternalError):
                writer.writerow(_internal_error_row(header, record))
            else:
                cells = to_row(record) if to_row else [record[k] for k in header]
                writer.writerow([_csv_cell(v) for v in cells])
            yield record
    else:
        for record in records:
            if isinstance(record, InternalError):
                _emit_json(out, record._asdict())
            else:
                _emit_json(out, to_json(record) if to_json else record)
            yield record


def _report_errors(parse_errors, internal: list[dict], violations=()) -> int:
    """Print what went wrong, after all records, and return the exit code it
    forces, or EXIT_OK."""
    for lineno, _text, error in parse_errors:
        print(f"line {lineno}: {error}", file=sys.stderr)
    for violation in violations:
        print(
            f"BOUND VIOLATION: graph {violation['index']} ({violation['graph6']}) "
            f"fails {violation['check']}",
            file=sys.stderr,
        )
    for error in internal:
        print(
            f"INTERNAL ERROR: graph {error['index']} ({error['graph6']}): "
            f"{error['internal_error']}",
            file=sys.stderr,
        )
    if parse_errors:
        return EXIT_INPUT
    if violations or internal:
        return EXIT_VIOLATION
    return EXIT_OK


# -- analyze / oracle ------------------------------------------------------------


def cmd_records(worker, header, args: argparse.Namespace, lines: list[str], out) -> int:
    """``analyze`` or ``oracle``: one record per graph under ``header``,
    whose ``error`` field fails ``--strict`` (oracle takes neither
    ``--strict`` nor ``--jobs``, so they keep their defaults)."""
    records, parse_errors = _corpus_records(
        worker, lines, args.budget_expansions, args.jobs, args.fail_fast
    )
    internal, skipped = [], False
    for record in _written(records, out, args.fmt, header):
        if isinstance(record, InternalError):
            internal.append(record._asdict())
        elif record["error"]:
            skipped = True
    code = _report_errors(parse_errors, internal)
    return code or (EXIT_BUDGET if args.strict and skipped else EXIT_OK)


_ORACLE_FIELDS = ("index", "graph6", "n", "coefficients", "alternating", "error")


def _oracle_worker(index: int, text: str, graph, _limit) -> dict:
    record = {"index": index, "graph6": text, "n": graph.n}
    try:
        coeffs = oracle_polynomial(graph)
    except ValueError as exc:
        return {**record, "coefficients": None, "alternating": None, "error": str(exc)}
    return {**record, "coefficients": coeffs, "alternating": _value_at(coeffs, -1), "error": None}


# -- verify --------------------------------------------------------------------


_VERIFY_HEADER = ("index", "graph6", "n", "alternating") + tuple(
    f"{name}_{field}" for name in CHECK_NAMES for field in CheckResult._fields
)


def _verify_row(report) -> list:
    row = [report.index, report.graph6, report.n, report.alternating]
    for name in CHECK_NAMES:
        row.extend(report.checks[name])
    return row


def cmd_verify(args: argparse.Namespace, lines: list[str], out) -> int:
    reports, parse_errors = _corpus_records(
        _verify_worker, lines, args.budget_expansions, args.jobs, args.fail_fast
    )
    written = _written(reports, out, args.fmt, _VERIFY_HEADER, report_to_dict, _verify_row)
    summary = summarize(written, parse_errors)
    if args.fmt == "csv":
        print(_COMPACT_JSON.encode(summary), file=sys.stderr)
    else:
        _emit_json(out, summary)

    code = _report_errors(parse_errors, summary.get("internal_errors", []), summary["violations"])
    not_evaluated = sum(c["not_evaluated"] for c in summary["checks"].values())
    return code or (EXIT_BUDGET if args.strict and not_evaluated else EXIT_OK)


# -- generate ------------------------------------------------------------------


_GENERATE_HEADER = ("k", "q", "n", "graph6", "steps")


def _generate_row(record: dict) -> list:
    steps = ";".join(" ".join(str(x) for x in step) for step in record["steps"])
    return [record["k"], record["q"], record["n"], record["graph6"], steps]


def cmd_generate(args: argparse.Namespace, recipe_out: "TextIO | None", out) -> int:
    # Imported here: no other subcommand builds constructions.
    from .constructions import ConstructionError, realize

    k = args.k
    targets = list(range(-(1 << k), (1 << k) + 1)) if args.all else [args.q]
    records = []
    failures = []
    for target in targets:
        try:
            graph, recipe = realize(k, target, budget=Budget(args.budget_expansions))
            records.append({
                "k": k,
                "q": target,
                "n": graph.n,
                "graph6": to_graph6(graph),
                "steps": [list(step) for step in recipe.steps],
            })
        except (ConstructionError, BudgetExceededError, Graph6Error) as exc:
            failures.append((target, str(exc)))

    if recipe_out is not None:
        for rec in records:
            _emit_json(recipe_out, rec)
            out.write(rec["graph6"] + "\n")
    else:
        for _ in _written(records, out, args.fmt, _GENERATE_HEADER, to_row=_generate_row):
            pass

    for target, message in failures:
        print(f"realization failed for (k={k}, q={target}): {message}", file=sys.stderr)
    return EXIT_VIOLATION if failures else EXIT_OK


# -- enumerate -------------------------------------------------------------------


def cmd_enumerate(n: int, out) -> int:
    if n < 0 or n > ENUMERATE_MAX_N:
        print(
            f"refusing to enumerate n={n}: labeled enumeration is capped at "
            f"n <= {ENUMERATE_MAX_N} (2^(n(n-1)/2) lines)",
            file=sys.stderr,
        )
        return EXIT_INPUT
    for graph in enumerate_labeled_graphs(n):
        out.write(to_graph6(graph) + "\n")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


_FLAGS = {
    "--input": dict(default="-", metavar="PATH",
                    help="graph6 input file, or - for stdin (default)"),
    "--format": dict(dest="fmt", choices=("json", "csv"), default="json",
                     help="output format (default json lines)"),
    "--budget-expansions": dict(type=int, default=DEFAULT_EXPANSIONS, metavar="N",
                                help="search expansion budget per stage "
                                f"(default {DEFAULT_EXPANSIONS})"),
    "--density-k": dict(type=int, default=3, metavar="K",
                        help="largest ternary decycling number (default 3)"),
    "--strict": dict(action="store_true",
                     help="treat budget-skipped checks as a failing exit (code 3)"),
    "--jobs": dict(type=int, default=1, metavar="N",
                   help="processes, the parent and N-1 forked workers (default 1)"),
    "--fail-fast": dict(action="store_true",
                        help="stop at the first malformed input line"),
}
_CORPUS_FLAGS = ("--input", "--format", "--budget-expansions", "--strict", "--jobs", "--fail-fast")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altind",
        description=(
            "Exact independence-polynomial invariants, decycling bounds and "
            "extremal constructions over graph6 streams."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, names):
        for name in names:
            p.add_argument(name, **_FLAGS[name])

    # Every subcommand's namespace holds every flag, at its default where
    # the subcommand does not take it.
    defaults = argparse.ArgumentParser(add_help=False)
    add_flags(defaults, _FLAGS)
    parser.set_defaults(**vars(defaults.parse_args([])))

    p_analyze = sub.add_parser("analyze", help="per-graph invariants as JSON/CSV")
    add_flags(p_analyze, _CORPUS_FLAGS)

    p_verify = sub.add_parser("verify", help="check every bound on a corpus")
    add_flags(p_verify, _CORPUS_FLAGS)

    p_generate = sub.add_parser("generate", help="emit verified extremal witnesses")
    add_flags(p_generate, ("--format", "--budget-expansions", "--density-k"))
    p_generate.add_argument("k", type=int, help="target ternary decycling number")
    p_generate.add_argument("q", type=int, nargs="?", default=None,
                            help="target alternating number (|q| <= 2^k)")
    p_generate.add_argument("--all", action="store_true",
                            help="sweep every q with |q| <= 2^k")
    p_generate.add_argument("--recipe-out", metavar="PATH", default=None,
                            help="write JSON recipes here and print bare graph6 lines")

    p_enumerate = sub.add_parser("enumerate", help="all labeled graphs on n vertices")
    p_enumerate.add_argument("n", type=int)

    p_oracle = sub.add_parser("oracle", help="brute-force polynomial for small graphs")
    add_flags(p_oracle, ("--input", "--format", "--fail-fast"))

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # The reader closed stdout: send what is still buffered to devnull,
        # so the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VIOLATION


def _run(args: argparse.Namespace) -> int:
    if args.command == "enumerate":
        return cmd_enumerate(args.n, sys.stdout)

    if args.budget_expansions <= 0 or args.jobs <= 0:
        print("budgets and job counts must be positive", file=sys.stderr)
        return EXIT_INPUT
    if args.jobs > 1 and not hasattr(os, "fork"):
        print("--jobs above 1 needs os.fork, which this platform lacks", file=sys.stderr)
        return EXIT_INPUT

    if args.command == "generate":
        if args.all == (args.q is not None):
            print("generate needs either a target q or --all", file=sys.stderr)
            return EXIT_INPUT
        if not 1 <= args.k <= args.density_k:
            print(f"k must be between 1 and --density-k = {args.density_k}", file=sys.stderr)
            return EXIT_INPUT
        if not args.all and abs(args.q) > 1 << args.k:
            print(f"|q| must be at most 2^k = {1 << args.k}", file=sys.stderr)
            return EXIT_INPUT
        if args.recipe_out is not None and args.fmt == "csv":
            print("--recipe-out prints bare graph6 lines and takes no --format csv",
                  file=sys.stderr)
            return EXIT_INPUT
        if args.recipe_out is None:
            return cmd_generate(args, None, sys.stdout)
        try:
            recipe_out = open(args.recipe_out, "w", encoding="ascii")
        except OSError as exc:
            print(f"cannot write {args.recipe_out}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        with recipe_out:
            return cmd_generate(args, recipe_out, sys.stdout)

    try:
        lines = _read_lines(args.input)
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "verify":
        return cmd_verify(args, lines, sys.stdout)
    if args.command == "analyze":
        return cmd_records(_analyze_worker, _ANALYZE_FIELDS, args, lines, sys.stdout)
    return cmd_records(_oracle_worker, _ORACLE_FIELDS, args, lines, sys.stdout)


if __name__ == "__main__":
    raise SystemExit(main())
