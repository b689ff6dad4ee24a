"""Traced in-process run: one root span per graph, one child span per stage.

Each public stage function of the package is called on its own, with a fresh
expansion budget, between two ``perf_counter`` reads taken here, in the
benchmark, around the call.  The one span recorded inside a stage is the
simple-cycle walk that ``chordless_cycles`` runs: the module-level
``has_cycle_length_not_div3`` it calls is wrapped for the duration of the
run, so the census can be reported without it.  Spans stay in memory and are
written out once, after the run.

A span's self time is its duration minus the time its children cover, and
its self expansions are its ``Budget.used`` minus that of its children.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import altind.cycles as cycles
from altind.bounds import report_to_dict, verify_graph
from altind.budget import Budget
from altind.cycles import chordless_cycles, has_cycle_length_not_div3, is_ternary
from altind.decycling import (
    decycling_summary,
    middle_bound,
    min_decycling,
    min_ternary_decycling,
    minimal_ternary_decycling_sets,
)
from altind.graph6 import parse_graph6
from altind.indpoly import alternating_number, independent_set_count

# Stage spans, in call order, with the per-layer metric prefix each feeds.
STAGES = (
    "graph6.parse",
    "indpoly.alternating",
    "indpoly.count",
    "cycles.census",
    "cycles.is_ternary",
    "cycles.walk",
    "decycling.phi",
    "decycling.phi3",
    "decycling.minsets",
    "decycling.middle",
    "decycling.summary",
    "bounds.verify_graph",
)
# The stage functions called one by one.  Each redoes work that verify_graph
# shares between its checks (the census above all), so their summed self
# time, stages.sum_s, exceeds bounds.verify_graph_s; both are reported.
SOLVER_STAGES = STAGES[1:-1]
INNER_WALK = "cycles.census.walk"


class Tracer:
    """Flat in-memory span list: (id, parent, name, start, end, expansions)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.current = -1

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((sid, self.current, name, perf_counter(), None, 0))
        self.current = sid
        return sid

    def close(self, sid: int, expansions: int = 0) -> None:
        end = perf_counter()
        _, parent, name, start, _, _ = self.spans[sid]
        self.spans[sid] = (sid, parent, name, start, end, expansions)
        self.current = parent

    def stage(self, name: str, fn, *args, budget: "Budget | None" = None):
        sid = self.open(name)
        try:
            return fn(*args) if budget is None else fn(*args, budget=budget)
        finally:
            self.close(sid, budget.used if budget is not None else 0)

    def write(self, path) -> None:
        """One JSON line per span; ``graph`` is the id of its root span."""
        keys = ("id", "parent", "name", "start", "end", "exp")
        roots = []
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                parent = span[1]
                roots.append(span[0] if parent < 0 else roots[parent])
                fh.write(json.dumps(dict(zip(keys, span), graph=roots[-1])) + "\n")


def _traced_walk(tracer: Tracer):
    def walk(g, budget):
        before = budget.used
        sid = tracer.open(INNER_WALK)
        try:
            return has_cycle_length_not_div3(g, budget=budget)
        finally:
            tracer.close(sid, budget.used - before)

    return walk


def _result(stages: tuple) -> dict:
    alternating, count, census, ternary, _, phi, phi3, minsets, middle, summary, report = stages
    found = census.chordless_cycles
    return {
        "universe": len({v for cyc in found for v in cyc}),
        "chordless": len(found),
        "ternary_chordless": sum(len(c) % 3 == 0 for c in found),
        "minsets": len(minsets[0]),
        "analyze": {
            "ternary": ternary,
            "alternating": alternating,
            "independent_sets": count,
            "phi": phi[0],
            "phi_witness": list(phi[1]),
            "phi3": phi3[0],
            "phi3_witness": list(phi3[1]),
            "middle_bound": middle[0],
            "middle_witness": list(middle[1]),
        },
        "summary": {
            "phi": summary.phi,
            "phi_witness": list(summary.phi_witness),
            "phi3": summary.phi3,
            "phi3_witness": list(summary.phi3_witness),
            "middle_bound": summary.middle_bound,
            "middle_witness": list(summary.middle_witness),
        },
        "verify": report_to_dict(report),
    }


def trace_corpus(lines: list[str], tracer: Tracer) -> tuple[list[dict], float]:
    """Run every stage on every graph.

    Returns one result dict per graph and the tracer's own cost: the loop's
    wall time outside the stage spans, less the time spent condensing each
    graph's results (done at once, so the large stage outputs do not pile up
    on the heap and slow the stages that follow).
    """
    results = []
    condense_s = 0.0
    cycles.has_cycle_length_not_div3 = _traced_walk(tracer)
    try:
        start = perf_counter()
        for index, text in enumerate(lines, start=1):
            root = tracer.open("graph")
            g = tracer.stage("graph6.parse", parse_graph6, text)
            stages = (
                tracer.stage("indpoly.alternating", alternating_number, g, budget=Budget()),
                tracer.stage("indpoly.count", independent_set_count, g, budget=Budget()),
                tracer.stage("cycles.census", chordless_cycles, g, budget=Budget()),
                tracer.stage("cycles.is_ternary", is_ternary, g, budget=Budget()),
                tracer.stage("cycles.walk", has_cycle_length_not_div3, g, budget=Budget()),
                tracer.stage("decycling.phi", min_decycling, g, budget=Budget()),
                tracer.stage("decycling.phi3", min_ternary_decycling, g, budget=Budget()),
                tracer.stage("decycling.minsets", minimal_ternary_decycling_sets, g, budget=Budget()),
                tracer.stage("decycling.middle", middle_bound, g, budget=Budget()),
                tracer.stage("decycling.summary", decycling_summary, g, budget=Budget()),
                tracer.stage("bounds.verify_graph", verify_graph, g, index, text),
            )
            tracer.close(root)
            began = perf_counter()
            results.append(_result(stages))
            condense_s += perf_counter() - began
        wall_s = perf_counter() - start
    finally:
        cycles.has_cycle_length_not_div3 = has_cycle_length_not_div3
    stage_s = sum(end - start for _, parent, _, start, end, _ in tracer.spans
                  if parent >= 0 and tracer.spans[parent][2] == "graph")
    return results, wall_s - stage_s - condense_s


def self_times(spans: list[tuple]) -> tuple[dict, dict, list[float]]:
    """Per-stage self seconds and self expansions, and per-graph verify ms."""
    child_s = [0.0] * len(spans)
    child_exp = [0] * len(spans)
    for _, parent, _, start, end, exp in spans:
        if parent >= 0:
            child_s[parent] += end - start
            child_exp[parent] += exp
    seconds = dict.fromkeys(STAGES, 0.0)
    expansions = dict.fromkeys(STAGES, 0)
    verify_ms = []
    for sid, parent, name, start, end, exp in spans:
        if name not in seconds or spans[parent][2] != "graph":
            continue
        seconds[name] += end - start - child_s[sid]
        expansions[name] += exp - child_exp[sid]
        if name == "bounds.verify_graph":
            verify_ms.append((end - start) * 1e3)
    return seconds, expansions, verify_ms


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that still has ten
    samples above it; the maximum when there are fewer than twenty samples,
    where that percentile would fall below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def per_layer(tracer: Tracer, results: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics (name -> (value, unit)) of one traced run, and
    lines describing the corpus and the tail sample."""
    seconds, expansions, verify_ms = self_times(tracer.spans)
    pct, tail_ms = tail(verify_ms)
    out = {
        "graph6.parse_s": (seconds["graph6.parse"], "s"),
        "cycles.chordless": (sum(r["chordless"] for r in results), "count"),
        "cycles.ternary_chordless": (sum(r["ternary_chordless"] for r in results), "count"),
        "decycling.minsets_count": (sum(r["minsets"] for r in results), "count"),
        "bounds.verify_graph_s": (seconds["bounds.verify_graph"], "s"),
        "bounds.verify_graph_ms_p50": (statistics.median(verify_ms), "ms"),
        "bounds.verify_graph_ms_tail": (tail_ms, "ms"),
        "stages.sum_s": (sum(seconds[name] for name in SOLVER_STAGES), "s"),
    }
    for name in SOLVER_STAGES:
        out[f"{name}_s"] = (seconds[name], "s")
        out[f"{name}_exp"] = (expansions[name], "count")
    sizes = [r["universe"] for r in results]
    shares = [sum(u < 8 for u in sizes), sum(8 <= u <= 18 for u in sizes), sum(u > 18 for u in sizes)]
    notes = [
        "cycle universe u: <8 {:.3f}, 8..18 {:.3f}, >18 {:.3f}".format(
            *(k / len(sizes) for k in shares)),
        f"bounds.verify_graph_ms_tail is p{pct:.1f} of {len(verify_ms)} samples",
    ]
    return out, notes
