import random
import sys

import pytest

import altind.bounds
import altind.cycles
from altind import (
    CHECK_NAMES,
    BudgetExceededError,
    DEFAULT_EXPANSIONS,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_labeled_graphs,
    independent_set_count,
    parse_graph6,
    path_graph,
    run_corpus,
    summarize,
    to_graph6,
    verify_graph,
)
from altind.bounds import CheckResult, report_to_dict
from altind.cli import _analyze_worker

from conftest import random_graph, subdivided_complete


def test_c4_report():
    report = verify_graph(cycle_graph(4), index=7, graph6_text="Cl")
    assert report.index == 7 and report.graph6 == "Cl"
    assert report.alternating == -1
    c = report.checks
    assert c["ternary_unit_bound"].applicable and c["ternary_unit_bound"].slack == 0
    assert c["decycling_bound"].bound == 2 and c["decycling_bound"].slack == 1
    assert c["chain_lower"].bound == 1 and c["chain_lower"].slack == 0
    assert c["chain_upper"].bound == 1 and c["chain_upper"].slack == 0
    assert all(x.satisfied for x in c.values() if x.applicable)


def test_c6_report():
    report = verify_graph(cycle_graph(6))
    c = report.checks
    assert c["cyclomatic_bound"].applicable is False
    assert c["cyclomatic_bound"].satisfied is None
    assert report.alternating == 2
    assert c["chain_upper"].bound == 2
    assert c["chain_lower"].slack == 0 and c["chain_upper"].slack == 0


def test_k4_report():
    report = verify_graph(complete_graph(4))
    assert abs(report.alternating) == 3
    c = report.checks
    assert c["cyclomatic_bound"].applicable and c["cyclomatic_bound"].bound == 5
    assert c["decycling_bound"].bound == 4
    assert c["chain_lower"].bound == 3 and c["chain_lower"].slack == 0
    assert c["chain_upper"].bound == 4 and c["chain_upper"].slack == 1


def test_ternary_hypothesis_never_marks_unsatisfied():
    report = verify_graph(cycle_graph(3))
    check = report.checks["ternary_unit_bound"]
    assert check.applicable is False and check.satisfied is None


def test_corpus_small_exhaustive_has_no_violations():
    lines = [to_graph6(g) for n in range(5) for g in enumerate_labeled_graphs(n)]
    reports, errors, summary = run_corpus(lines)
    assert not errors
    assert summary["graphs"] == len(lines)
    assert summary["violations"] == []
    for name in CHECK_NAMES:
        assert summary["checks"][name]["violated"] == 0


def test_corpus_random_has_no_violations():
    rng = random.Random(11)
    lines = [to_graph6(random_graph(rng, rng.randrange(0, 11))) for _ in range(150)]
    _, errors, summary = run_corpus(lines)
    assert not errors and summary["violations"] == []


def test_tightness_counter():
    _, _, summary = run_corpus(["Bw"])
    assert summary["checks"]["chain_upper"]["tight"] == 1
    assert summary["checks"]["decycling_bound"]["tight"] == 1


def test_empty_corpus():
    reports, errors, summary = run_corpus([])
    assert reports == [] and errors == [] and summary["graphs"] == 0


def test_parse_errors_reported_with_line_numbers():
    reports, errors, summary = run_corpus(["Bw", "garbage!!", "@"])
    assert len(reports) == 2
    assert len(errors) == 1 and errors[0][0] == 2
    assert summary["parse_errors"] == 1


def test_fail_fast_stops_at_first_error():
    reports, errors, _ = run_corpus(["garbage!!", "Bw"], fail_fast=True)
    assert reports == [] and len(errors) == 1


def test_budget_failure_downgrades_not_violates():
    report = verify_graph(complete_graph(12), budget_limit=4)
    for check in report.checks.values():
        assert check.satisfied is not False
    assert any(check.error for check in report.checks.values())
    summary = summarize([report])
    assert summary["violations"] == []
    assert sum(c["not_evaluated"] for c in summary["checks"].values()) > 0


def test_parallel_output_matches_serial():
    lines = [to_graph6(g) for g in enumerate_labeled_graphs(4)]
    serial = run_corpus(lines, jobs=1)
    parallel = run_corpus(lines, jobs=4)
    assert [report_to_dict(r) for r in serial[0]] == [report_to_dict(r) for r in parallel[0]]
    assert serial[2] == parallel[2]


def test_report_dict_shape():
    rec = report_to_dict(verify_graph(path_graph(3), index=1, graph6_text="Bg"))
    assert list(rec) == ["index", "graph6", "n", "alternating", "checks"]
    assert set(rec["checks"]) == set(CHECK_NAMES)
    assert set(rec["checks"]["chain_lower"]) == {
        "applicable",
        "bound",
        "satisfied",
        "slack",
        "error",
    }


def test_empty_graph_line_verifies():
    reports, errors, summary = run_corpus(["?"])
    assert not errors and reports[0].alternating == 1
    assert reports[0].checks["ternary_unit_bound"].satisfied


def _not_evaluated(report) -> set:
    return {name for name, check in report.checks.items() if check.error}


def test_blown_phi_solve_marks_only_decycling_bound():
    # Expansions: alternating 11, census 15, phi 80, ternary half 24,
    # hypothesis 0 (a 4-cycle is chordless, so no chord test runs).
    report = verify_graph(parse_graph6("JK@CpIWPUZ_"), budget_limit=79)
    assert _not_evaluated(report) == {"decycling_bound"}
    assert report.checks["chain_upper"].bound == 8


def test_blown_ternary_half_marks_only_the_chain():
    # Expansions: alternating 3, census 3, phi 6, ternary half 8,
    # hypothesis 1 (one component pass, off the first triangle).
    report = verify_graph(complete_graph(4), budget_limit=7)
    assert _not_evaluated(report) == {"chain_lower", "chain_upper"}
    assert report.checks["decycling_bound"].bound == 4


def test_blown_ternary_half_nulls_only_its_analyze_fields():
    # Expansions: polynomial 3, census 3, phi 6, ternary half 8.
    rec = _analyze_worker(1, "C~", complete_graph(4), 7)
    assert rec == {
        "index": 1,
        "graph6": "C~",
        "n": 4,
        "e": 6,
        "q": 1,
        "nu": 3,
        "ternary": False,
        "alternating": -3,
        "independent_sets": 5,
        "phi": 2,
        "phi_witness": [0, 1],
        "phi3": None,
        "phi3_witness": None,
        "middle_bound": None,
        "middle_witness": None,
        "error": "ternary decycling invariants not evaluated: instance too large: "
        "expansion budget of 7 exhausted",
    }


def test_blown_polynomial_nulls_both_of_its_analyze_fields():
    # Expansions: polynomial 5 (one per isolated vertex), census, phi and
    # ternary half 0.  One pass gives both I(G;-1) and I(G;1), so both are
    # null, and the error names the alternating-number stage.
    rec = _analyze_worker(2, "D??", empty_graph(5), 4)
    assert rec == {
        "index": 2,
        "graph6": "D??",
        "n": 5,
        "e": 0,
        "q": 5,
        "nu": 0,
        "ternary": True,
        "alternating": None,
        "independent_sets": None,
        "phi": 0,
        "phi_witness": [],
        "phi3": 0,
        "phi3_witness": [],
        "middle_bound": 1,
        "middle_witness": [],
        "error": "alternating number not evaluated: instance too large: "
        "expansion budget of 4 exhausted",
    }
    assert _analyze_worker(2, "D??", empty_graph(5), 5)["independent_sets"] == 32


@pytest.mark.parametrize("limit", [DEFAULT_EXPANSIONS, 20, 30, 60])
def test_verify_and_analyze_agree(limit):
    # Each analyze field reads the same stage as a verify check: it is null
    # exactly when that check is not evaluated, and where both are evaluated
    # they meet the benchmark gate's equalities.  At 20, D^_'s census (8
    # expansions), phi solve (4) and ternary half (10) each fit a budget, but
    # not one shared.
    paired = {
        "ternary": "ternary_unit_bound",
        "phi": "decycling_bound",
        "phi3": "chain_lower",
        "middle_bound": "chain_lower",
    }
    for g in (g for n in range(6) for g in enumerate_labeled_graphs(n)):
        text = to_graph6(g)
        report = verify_graph(g, budget_limit=limit)
        checks = report.checks
        rec = _analyze_worker(0, text, g, limit)
        assert rec["alternating"] == report.alternating, text
        if rec["independent_sets"] is not None:
            assert rec["independent_sets"] == independent_set_count(g), text
        for field, name in paired.items():
            assert (rec[field] is None) == (checks[name].error is not None), (text, field)
        if rec["ternary"] is not None:
            assert checks["ternary_unit_bound"].applicable == rec["ternary"], text
        if rec["phi"] is not None:
            assert checks["decycling_bound"].bound == 1 << rec["phi"], text
        if rec["phi3"] is not None:
            assert checks["chain_lower"].bound == rec["middle_bound"], text
            assert checks["chain_upper"].bound == 1 << rec["phi3"], text


def test_twice_subdivided_k7_hypothesis_within_budget():
    # Every cycle has length divisible by 3 and no two branch vertices are
    # adjacent, so the census (14,099 expansions) decides it and the
    # component rule examines no cycle; walking the simple cycles took 26,120.
    report = verify_graph(subdivided_complete(7, 2), budget_limit=20_000)
    check = report.checks["cyclomatic_bound"]
    assert check.error is None and check.applicable is False


def test_blown_census_record():
    # K5's census takes 6 expansions and the alternating number 4; the
    # cycle-length hypothesis reads the census, so it is not evaluated either.
    rec = report_to_dict(verify_graph(complete_graph(5), budget_limit=5))
    blown = {
        "applicable": None,
        "bound": None,
        "satisfied": None,
        "slack": None,
        "error": "cycle census not evaluated: instance too large: "
        "expansion budget of 5 exhausted",
    }
    assert rec == {
        "index": 0,
        "graph6": "",
        "n": 5,
        "alternating": -4,
        "checks": {
            "ternary_unit_bound": blown,
            "decycling_bound": blown,
            "cyclomatic_bound": blown,
            "chain_lower": blown,
            "chain_upper": blown,
        },
    }


_HALF_FIELDS = {"phi", "phi_witness", "phi3", "phi3_witness", "middle_bound", "middle_witness"}
# The bounds.py docstring's table: each stage's reason prefix, the function
# bounds calls for it, the checks it marks not evaluated and the analyze
# fields it nulls.
_STAGE_TABLE = {
    "cycle census": ("cycle_census", set(CHECK_NAMES), {"ternary"} | _HALF_FIELDS),
    "alternating number": (
        "independence_polynomial",
        set(CHECK_NAMES) - {"chain_upper"},
        {"alternating", "independent_sets"},
    ),
    "decycling number": ("_phi_half", {"decycling_bound"}, {"phi", "phi_witness"}),
    "ternary decycling invariants": (
        "_ternary_half",
        {"chain_lower", "chain_upper"},
        _HALF_FIELDS - {"phi", "phi_witness"},
    ),
    "cycle-length hypothesis": ("_cycle_length_not_div3", {"cyclomatic_bound"}, set()),
}


def _blow(monkeypatch, name):
    def blown(*args):
        raise BudgetExceededError("instance too large: expansion budget of 1 exhausted")

    monkeypatch.setattr(altind.bounds, name, blown)


@pytest.mark.parametrize("stage", list(_STAGE_TABLE))
@pytest.mark.parametrize("text", ["C~", "EhEG", "Cl"])
def test_a_blown_stage_marks_exactly_its_table_row(monkeypatch, text, stage):
    # K4, C6 and the ternary C4; no budget is pinned, the stage's function
    # raises.
    g = parse_graph6(text)
    clean_checks = verify_graph(g).checks
    clean_record = _analyze_worker(0, text, g, DEFAULT_EXPANSIONS)
    name, checks, fields = _STAGE_TABLE[stage]
    _blow(monkeypatch, name)
    reason = f"{stage} not evaluated: instance too large: expansion budget of 1 exhausted"

    blows_alt = stage == "alternating number"
    report = verify_graph(g)
    for check in CHECK_NAMES:
        # A check whose hypothesis fails reads no alternating number.
        marked = check in checks and not (blows_alt and clean_checks[check].applicable is False)
        expected = CheckResult(applicable=None, error=reason) if marked else clean_checks[check]
        assert report.checks[check] == expected, check
    assert report.alternating == (None if blows_alt else clean_record["alternating"])
    assert report.error == (reason if blows_alt else None)

    record = _analyze_worker(0, text, g, DEFAULT_EXPANSIONS)
    assert record == {
        **clean_record,
        **dict.fromkeys(fields),
        "error": reason if stage != "cycle-length hypothesis" else None,
    }


def test_a_blown_census_is_named_before_a_blown_polynomial(monkeypatch):
    _blow(monkeypatch, "cycle_census")
    _blow(monkeypatch, "independence_polynomial")
    record = _analyze_worker(0, "C~", complete_graph(4), DEFAULT_EXPANSIONS)
    assert record["error"].startswith("cycle census not evaluated: ")
    assert record["alternating"] is record["phi"] is None


# The first three have nonempty ternary decycling witnesses, whose re-check
# walks G - S; C4, C8 and P5 are ternary, and their empty witness
# is not re-checked.
@pytest.mark.parametrize("text", ["C~", "F@Vmw", "E{CG", "Cl", "GhCGKC", "DhC"])
def test_one_census_per_graph(monkeypatch, text):
    g = parse_graph6(text)
    calls = []
    enumerate_cycles = altind.cycles._chordless_iter

    def spy(adj, alive, budget):
        # The witness re-checks enumerate G - S in place; only a walk over
        # the whole graph is a census.
        if adj == g.adj and alive == g.all_mask:
            calls.append(alive)
        return enumerate_cycles(adj, alive, budget)

    for name, module in list(sys.modules.items()):
        if name.startswith("altind") and hasattr(module, "_chordless_iter"):
            monkeypatch.setattr(module, "_chordless_iter", spy)
    verify_graph(g)
    assert len(calls) == 1
    calls.clear()
    _analyze_worker(1, text, g, DEFAULT_EXPANSIONS)
    assert len(calls) == 1
