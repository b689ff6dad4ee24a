"""Per-graph verification of the alternating-number bound chain.

For each input graph the verifier evaluates, with exact integers:

  * ternary_unit_bound:  ternary graphs satisfy |I(G;-1)| <= 1,
  * decycling_bound:     |I(G;-1)| <= 2^phi,
  * cyclomatic_bound:    |I(G;-1)| <= 2^nu - nu, when some cycle length is
                         not divisible by 3,
  * chain_lower:         |I(G;-1)| <= min |Ind(G[D])| over ternary
                         decycling sets D,
  * chain_upper:         that minimum is <= 2^phi3.

The chordless cycles are enumerated once per graph, into a census the
solvers and the cycle-length hypothesis share.  ``verify`` and ``analyze``
run the same four stages in this order, and verify one more, each under its
own fresh budget of ``budget_limit`` expansions.  A stage that exhausts it
marks only the checks that read it "not evaluated" and nulls only the
analyze fields it computes (``error`` names the first such stage):

  * cycle census:             every check; ternary and the halves' fields,
  * alternating number:       every applicable check but chain_upper;
                              alternating and independent_sets (one
                              independence-polynomial pass: I(G;-1) is the
                              alternating sum of its coefficients and I(G;1)
                              their plain sum),
  * phi solve:                decycling_bound; phi and its witness,
  * ternary half:             chain_lower and chain_upper; phi3,
                              middle_bound and their witnesses (phi3, then
                              the middle bound searched from its witness),
  * cycle-length hypothesis:  (verify only) cyclomatic_bound (the census's
                              cycle lengths, then a component pass per
                              census cycle that could carry a chord; see
                              ``cycles``).

Each stage gives a ``(value, reason)`` pair, ``(None, reason)`` when blown;
the halves and the hypothesis read the census, so a blown census's pair is
theirs.  Every check follows one rule: a blown stage makes it not evaluated
with that stage's reason; a failed hypothesis, not applicable (never
unsatisfied); a blown alternating number, not evaluated with its reason;
otherwise it records the bound, satisfied and slack.  A satisfied=False
anywhere signals either an implementation bug or a counterexample to a
proved statement, and is surfaced loudly by the callers.  So is an
``AssertionError`` from a witness re-check or an engine cross-check: over a
corpus it becomes an :class:`InternalError` in place of that graph's record,
and the other graphs still run.

Every corpus run (``run_corpus``, and ``verify``, ``analyze`` and ``oracle``
in the CLI) takes one path: the whole input is parsed first, then each
graph's record is yielded as it finishes, in input order for any job count,
so memory holds the parsed input but not the records.  With ``jobs`` above
one, workers are forked from the parsed corpus (POSIX only): graph i runs in
process i mod jobs, the parent being process 0, and only the records travel
back, pickled over one pipe per worker.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Iterable, Iterator, NamedTuple

from .budget import Budget, BudgetExceededError, DEFAULT_EXPANSIONS
from .cycles import _cycle_length_not_div3, cycle_census
from .decycling import _phi_half, _ternary_half, cyclomatic_number
from .graph import Graph, bits
from .graph6 import iter_graph6
from .indpoly import _value_at, independence_polynomial

CHECK_NAMES = (
    "ternary_unit_bound",
    "decycling_bound",
    "cyclomatic_bound",
    "chain_lower",
    "chain_upper",
)


class CheckResult(NamedTuple):
    """One bound instance.  applicable is None when the hypothesis test
    itself could not be evaluated; error holds the reason whenever the check
    was not evaluated."""

    applicable: "bool | None"
    bound: "int | None" = None
    satisfied: "bool | None" = None
    slack: "int | None" = None
    error: "str | None" = None


class BoundsReport(NamedTuple):
    index: int
    graph6: str
    n: int
    alternating: "int | None"
    checks: dict
    error: "str | None" = None


class InternalError(NamedTuple):
    """A graph whose solvers failed a witness re-check or a cross-check, in
    place of its record: a defect in the program, not in the input.
    ``_asdict()`` is its output record."""

    index: int
    graph6: str
    n: int
    internal_error: str


def _attempt(limit: int, stage: str, fn, *args):
    """``(fn(*args, budget), None)`` under a fresh budget of ``limit``
    expansions, or ``(None, reason)`` when the stage exhausts it."""
    try:
        return fn(*args, Budget(limit)), None
    except BudgetExceededError as exc:
        return None, f"{stage} not evaluated: {exc}"


def _after_census(limit: int, stage: str, fn, g: Graph, census: tuple):
    """:func:`_attempt` of ``fn(g, census value)``, or a blown census's own
    ``(None, reason)``."""
    return census if census[1] else _attempt(limit, stage, fn, g, census[0])


def _stages(g: Graph, limit: int) -> tuple:
    """The ``(value, reason)`` pairs of the stages verify and analyze share,
    in analyze's order: the census, the independence polynomial (the
    alternating-number stage), the phi half and the ternary half."""
    census = _attempt(limit, "cycle census", cycle_census, g)
    poly = _attempt(limit, "alternating number", independence_polynomial, g)
    phi = _after_census(limit, "decycling number", _phi_half, g, census)
    ternary = _after_census(limit, "ternary decycling invariants", _ternary_half, g, census)
    return census, poly, phi, ternary


def _check(reason, bound, value, value_reason) -> CheckResult:
    """The module docstring's check rule: ``reason`` is the stage's, and
    ``value_reason`` explains a ``value`` of None."""
    if reason:
        return CheckResult(None, error=reason)
    if bound is None:
        return CheckResult(False)
    if value is None:
        return CheckResult(None, error=value_reason)
    return CheckResult(True, bound, value <= bound, bound - value)


def verify_graph(
    g: Graph,
    index: int = 0,
    graph6_text: str = "",
    budget_limit: "int | None" = None,
) -> BoundsReport:
    """Evaluate every bound in scope on one graph, each stage under its own
    budget of ``budget_limit`` expansions (see the module docstring)."""
    limit = budget_limit if budget_limit is not None else DEFAULT_EXPANSIONS
    census, (coeffs, alt_error), phi, ternary = _stages(g, limit)
    not_div3 = _after_census(limit, "cycle-length hypothesis", _cycle_length_not_div3, g, census)
    alternating = None if coeffs is None else _value_at(coeffs, -1)
    magnitude = None if alternating is None else abs(alternating)
    # A blown stage's bound is never read, so these stand in for its value.
    phi_size = phi[0][0] if phi[0] else 0
    phi3_mask, middle, _ = ternary[0] or (0, 0, 0)
    nu = cyclomatic_number(g) if not_div3[0] else 0
    rows = (
        (census, None if census[1] or census[0].ternary else 1, magnitude),
        (phi, 1 << phi_size, magnitude),
        (not_div3, (1 << nu) - nu if not_div3[0] else None, magnitude),
        (ternary, middle, magnitude),
        # The upper link bounds the middle quantity itself, not |I|.
        (ternary, 1 << phi3_mask.bit_count(), middle),
    )
    checks = {
        name: _check(stage[1], bound, value, alt_error)
        for name, (stage, bound, value) in zip(CHECK_NAMES, rows)
    }
    return BoundsReport(index, graph6_text, g.n, alternating, checks, alt_error)


def report_to_dict(report: BoundsReport) -> dict:
    out = {
        "index": report.index,
        "graph6": report.graph6,
        "n": report.n,
        "alternating": report.alternating,
    }
    if report.error:
        out["error"] = report.error
    out["checks"] = {name: c._asdict() for name, c in report.checks.items()}
    return out


def summarize(
    reports: "Iterable[BoundsReport | InternalError]", parse_errors: "list | None" = None
) -> dict:
    """Aggregate counts in one pass over ``reports``; associative and
    order-independent per check.  The ``internal_errors`` list is present
    only when some graph has one."""
    per_check = {
        name: {"applicable": 0, "satisfied": 0, "violated": 0, "tight": 0, "not_evaluated": 0}
        for name in CHECK_NAMES
    }
    violations = []
    internal_errors = []
    graphs = 0
    for report in reports:
        graphs += 1
        if isinstance(report, InternalError):
            internal_errors.append(report._asdict())
            continue
        for name in CHECK_NAMES:
            c = report.checks[name]
            stats = per_check[name]
            if c.error is not None:
                stats["not_evaluated"] += 1
                continue
            if not c.applicable:
                continue
            stats["applicable"] += 1
            if c.satisfied:
                stats["satisfied"] += 1
                if c.slack == 0:
                    stats["tight"] += 1
            else:
                stats["violated"] += 1
                violations.append(
                    {"index": report.index, "graph6": report.graph6, "check": name}
                )
    summary = {
        "type": "summary",
        "graphs": graphs,
        "parse_errors": len(parse_errors or []),
        "violations": violations,
        "checks": per_check,
    }
    if internal_errors:
        summary["internal_errors"] = internal_errors
    return summary


def _guarded(worker, limit: "int | None", item: "tuple[int, str, Graph]"):
    """``worker(lineno, text, graph, limit)`` for one ``item``, or an
    :class:`InternalError` when it raises ``AssertionError``, so that one
    graph cannot end a run."""
    index, text, graph = item
    try:
        return worker(index, text, graph, limit)
    except AssertionError as exc:
        return InternalError(index, text, graph.n, str(exc))


def _corpus_records(
    worker, lines: Iterable[str], limit: "int | None", jobs: int = 1, fail_fast: bool = False
) -> "tuple[Iterator, list[tuple[int, str, str]]]":
    """Parse a graph6 stream up front, then run ``worker`` on each graph.

    Returns ``(records, parse_errors)``.  ``records`` yields
    ``worker(lineno, text, graph, limit)`` through :func:`_guarded` for each
    graph as it finishes, in input order for any job count.  Parse errors are
    ``(lineno, text, message)`` triples; ``fail_fast`` stops at the first.
    """
    graphs: list[tuple[int, str, Graph]] = []
    errors: list[tuple[int, str, str]] = []
    for lineno, text, graph, error in iter_graph6(lines):
        if error is None:
            graphs.append((lineno, text, graph))
            continue
        errors.append((lineno, text, error))
        if fail_fast:
            break
    return _mapped(partial(_guarded, worker, limit), graphs, jobs), errors


def _mapped(run, graphs: list, jobs: int) -> Iterator:
    """``map(run, graphs)``, over ``min(jobs, len(graphs))`` processes when
    that is more than one.

    The parent forks ``jobs - 1`` children (POSIX only).  Child k inherits
    ``graphs``, so no graph is sent to it; it runs ``graphs[k::jobs]`` and
    pickles each ``(ok, value)`` back on its own pipe.  The parent runs the
    graphs ``i % jobs == 0`` itself and yields every result in input order,
    re-raising a child's exception.  Closing the iterator, or any exception,
    closes the pipes and kills and reaps every child.  A child holds no read
    end of any pipe, so one whose parent died without that cleanup exits on
    its next write.  The program runs no threads, so forking it is safe.
    """
    jobs = min(jobs, len(graphs))
    if jobs < 2:
        yield from map(run, graphs)
        return
    # Imported here: a serial run never pays for them.
    import pickle
    import signal

    children, pipes = [], []
    try:
        for k in range(1, jobs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Hold no read end, so that a write after the parent dies
                # fails with EPIPE instead of blocking once the pipe fills.
                os.close(read_fd)
                for pipe in pipes:
                    pipe.close()
                _serve(run, graphs[k::jobs], write_fd)
            os.close(write_fd)
            children.append(pid)
            pipes.append(open(read_fd, "rb"))
        for i, item in enumerate(graphs):
            k = i % jobs
            if k == 0:
                yield run(item)
                continue
            try:
                ok, value = pickle.load(pipes[k - 1])
            except EOFError:
                raise RuntimeError(f"--jobs worker {k} exited before sending record {i}") from None
            if not ok:
                raise value
            yield value
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(run, items: list, fd: int) -> None:
    """A forked child's whole life: ``(True, run(item))`` for each item,
    pickled to ``fd`` as it finishes, or ``(False, exc)`` once and stop.
    Never returns, so no exception (a closed pipe included) resumes the
    parent's code in the child, and never flushes the parent's stdio."""
    import pickle

    try:
        with open(fd, "wb") as out:
            try:
                for item in items:
                    out.write(pickle.dumps((True, run(item))))
                    out.flush()
            except Exception as exc:
                out.write(pickle.dumps((False, exc)))
    finally:
        os._exit(0)


def _verify_worker(index: int, text: str, graph: Graph, limit: "int | None") -> BoundsReport:
    return verify_graph(graph, index, text, limit)


_ANALYZE_FIELDS = (
    "index",
    "graph6",
    "n",
    "e",
    "q",
    "nu",
    "ternary",
    "alternating",
    "independent_sets",
    "phi",
    "phi_witness",
    "phi3",
    "phi3_witness",
    "middle_bound",
    "middle_witness",
    "error",
)


def _analyze_worker(index: int, text: str, graph: Graph, limit: int) -> dict:
    """One analyze record: the shared stages, each under its own budget.
    ``alternating`` and ``independent_sets`` both read the polynomial.  A
    field is null only when its own stage ran out; ``error`` is the first
    such stage's reason."""
    stages = _stages(graph, limit)
    (census, _), (coeffs, _), (phi, _), (ternary, _) = stages
    e, q = graph.edge_count(), graph.component_count()
    record = dict.fromkeys(_ANALYZE_FIELDS)
    record.update(
        index=index, graph6=text, n=graph.n, e=e, q=q, nu=e - graph.n + q,
        alternating=None if coeffs is None else _value_at(coeffs, -1),
        independent_sets=None if coeffs is None else _value_at(coeffs, 1),
        error=next((why for _, why in stages if why), None),
    )
    if census is not None:
        record["ternary"] = not census.ternary
    if phi is not None:
        size, mask = phi
        record.update(phi=size, phi_witness=list(bits(mask)))
    if ternary is not None:
        phi3_mask, middle, middle_mask = ternary
        record.update(phi3=phi3_mask.bit_count(), phi3_witness=list(bits(phi3_mask)),
                      middle_bound=middle, middle_witness=list(bits(middle_mask)))
    return record


def run_corpus(
    lines: Iterable[str],
    jobs: int = 1,
    budget_limit: "int | None" = None,
    fail_fast: bool = False,
) -> "tuple[list[BoundsReport | InternalError], list[tuple[int, str, str]], dict]":
    """Verify a graph6 stream.

    Parsing is sequential; per-graph verification fans out over ``jobs``
    processes, the caller's and ``jobs - 1`` forked ones, with results in
    input order, so output is byte-identical for any job count.  Returns
    (reports, parse_errors, summary) where parse errors are (lineno, text,
    message) triples; a graph that trips an internal check has an
    :class:`InternalError` in its place.
    """
    records, parse_errors = _corpus_records(_verify_worker, lines, budget_limit, jobs, fail_fast)
    reports = list(records)
    return reports, parse_errors, summarize(reports, parse_errors)
