"""Acceptance suite: one test per criterion, exact integer tolerances.

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them); any assertion failure is a build failure.
"""

import json
import random
import subprocess
import sys

from altind import (
    CHECK_NAMES,
    alternating_number,
    cycle_graph,
    doubler_chain,
    empty_graph,
    enumerate_labeled_graphs,
    independence_polynomial,
    independent_set_count,
    is_ternary,
    min_ternary_decycling,
    minimal_ternary_decycling_sets,
    oracle_polynomial,
    path_graph,
    realize,
    to_graph6,
    verify_graph,
)

from conftest import induced, random_graph, without

SEED = 20260810
PATH_PERIOD = (1, 0, -1, -1, 0, 1)


def corpus_graphs():
    """All labeled graphs on 6 vertices plus 1000 random graphs per n in 7..12."""
    yield from enumerate_labeled_graphs(6)
    rng = random.Random(SEED)
    for n in range(7, 13):
        for _ in range(1000):
            yield random_graph(rng, n)


def test_criterion_1_oracle_equivalence():
    checked = 0
    for g in corpus_graphs():
        assert independence_polynomial(g) == oracle_polynomial(g), to_graph6(g)
        checked += 1
    assert checked == 32768 + 6000
    print(f"\nACCEPTANCE 1 PASS: engine == oracle coefficientwise on {checked} graphs")


def test_criterion_2_theorem_suite_zero_violations():
    checked = 0
    for g in corpus_graphs():
        report = verify_graph(g)
        for name in CHECK_NAMES:
            check = report.checks[name]
            assert check.error is None, (to_graph6(g), name, check.error)
            if check.applicable:
                assert check.satisfied, (to_graph6(g), name)
                assert check.slack >= 0, (to_graph6(g), name)
        checked += 1
    print(f"\nACCEPTANCE 2 PASS: every applicable bound holds on {checked} graphs")


def test_criterion_3_closed_forms():
    def alt_from(coeffs):
        return sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs))

    for n in range(37):
        g = path_graph(n) if n else empty_graph(0)
        expected = PATH_PERIOD[n % 6]
        assert alternating_number(g) == expected, f"P_{n}"
        if 1 <= n <= 20:
            assert alt_from(oracle_polynomial(g)) == expected, f"P_{n} oracle"
    for n in range(3, 37):
        expected = PATH_PERIOD[(n - 1) % 6] - PATH_PERIOD[(n - 3) % 6]
        assert alternating_number(cycle_graph(n)) == expected, f"C_{n}"
        if n <= 20:
            assert alt_from(oracle_polynomial(cycle_graph(n))) == expected, f"C_{n} oracle"
    for k in range(1, 13):
        assert abs(alternating_number(cycle_graph(3 * k))) == 2
        assert min_ternary_decycling(cycle_graph(3 * k))[0] == 1
    print("\nACCEPTANCE 3 PASS: path/cycle closed forms hold for n <= 36 "
          "(oracle-confirmed to n = 20)")


def test_criterion_4_doubler_chain_tightness():
    for k in (1, 2, 3):
        g, _ = doubler_chain(k)
        alt = alternating_number(g)
        phi3, witness = min_ternary_decycling(g)
        assert abs(alt) == 1 << k, k
        assert phi3 == k, k
        assert is_ternary(without(g, witness))
    print("\nACCEPTANCE 4 PASS: doubler chains are tight (|I| = 2^k, phi3 = k) "
          "for k in {1,2,3}")


def test_criterion_5_density_sweep():
    failures = []
    realized = 0
    for k in (1, 2, 3):
        for q in range(-(1 << k), (1 << k) + 1):
            try:
                g, _ = realize(k, q)
            except Exception as exc:  # noqa: BLE001 - report all failures
                failures.append((k, q, str(exc)))
                continue
            assert g.is_connected(), (k, q)
            assert alternating_number(g) == q, (k, q)
            assert min_ternary_decycling(g)[0] == k, (k, q)
            realized += 1
    assert not failures, failures
    assert realized == 5 + 9 + 17
    print(f"\nACCEPTANCE 5 PASS: all {realized} (k, q) density targets realized "
          "and re-verified")


def test_criterion_6_sharper_than_plain_decycling_on_c4():
    report = verify_graph(cycle_graph(4))
    assert abs(report.alternating) == 1
    ternary = report.checks["ternary_unit_bound"]
    assert ternary.applicable and ternary.bound == 1 and ternary.slack == 0
    plain = report.checks["decycling_bound"]
    assert plain.bound == 2 and plain.slack == 1
    chain_upper = report.checks["chain_upper"]
    assert chain_upper.bound == 1 and chain_upper.slack == 0
    chain_lower = report.checks["chain_lower"]
    assert chain_lower.bound == 1 and chain_lower.slack == 0
    print("\nACCEPTANCE 6 PASS: on C4 the chain bound (2^0 = 1) beats the plain "
          "decycling bound (2^1 = 2), slack fields 0 vs 1")


def test_criterion_7_middle_bound_monotonicity():
    rng = random.Random(SEED + 7)
    checked = 0
    while checked < 500:
        g = random_graph(rng, rng.randrange(3, 11))
        sets, truncated = minimal_ternary_decycling_sets(g)
        assert not truncated
        base = list(rng.choice(sets))
        extra = [v for v in range(g.n) if v not in base and rng.random() < 0.35]
        small = independent_set_count(induced(g, base))
        large = independent_set_count(induced(g, base + extra))
        assert small <= large, (to_graph6(g), base, extra)
        checked += 1
    print(f"\nACCEPTANCE 7 PASS: count monotonicity held on {checked} nested "
          "ternary decycling pairs")


def test_criterion_8_cli_determinism(tmp_path):
    corpus = tmp_path / "n5corpus.g6"
    lines = []
    for n in range(6):
        lines.extend(to_graph6(g) for g in enumerate_labeled_graphs(n))
    corpus.write_text("\n".join(lines) + "\n")

    def run(jobs):
        return subprocess.run(
            [sys.executable, "-m", "altind", "verify", "--input", str(corpus),
             "--jobs", str(jobs)],
            capture_output=True,
            check=False,
        )

    first = run(1)
    second = run(8)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
    summary = json.loads(first.stdout.decode().strip().splitlines()[-1])
    assert summary["graphs"] == len(lines) and summary["violations"] == []
    print(f"\nACCEPTANCE 8 PASS: verify over the n <= 5 corpus ({len(lines)} graphs) "
          "is byte-identical for --jobs 1 and --jobs 8")
