#!/usr/bin/env python3
"""Realize every (k, q) target with |q| <= 2^k for k up to a cap, re-verify
each witness with the exact engines and the full bound chain, and print
graph6 plus the recipe.

Usage: python scripts/realize_density_targets.py [--max-k 3]
"""

import argparse
import sys
import time

from altind import realize, to_graph6, verify_graph


def witness_problems(g, k: int, q: int) -> "list[str]":
    """Why the witness for (k, q) fails, or nothing when it holds.  The
    chain_upper bound is 2^phi3, so it pins phi3 = k."""
    problems = []
    report = verify_graph(g)
    if report.alternating != q:
        problems.append("alternating number differs from q")
    for name, check in report.checks.items():
        if check.error:
            problems.append(f"{name} not evaluated: {check.error}")
        elif check.applicable and not check.satisfied:
            problems.append(f"{name} violated")
    if report.checks["chain_upper"].bound != 1 << k:
        problems.append(f"chain_upper bound {report.checks['chain_upper'].bound} is not 2^k")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=3)
    args = parser.parse_args()

    failures = []
    start = time.time()
    for k in range(1, args.max_k + 1):
        for q in range(-(1 << k), (1 << k) + 1):
            try:
                g, recipe = realize(k, q)
            except Exception as exc:  # noqa: BLE001 - survey script
                failures.append((k, q, str(exc)))
                continue
            problems = witness_problems(g, k, q)
            if problems:
                failures.append((k, q, "; ".join(problems)))
                continue
            steps = "; ".join(" ".join(str(x) for x in s) for s in recipe.steps)
            print(f"k={k} q={q:+3d} n={g.n:2d} {to_graph6(g):24s} {steps}")
    elapsed = time.time() - start

    print(f"\n{'-' * 60}")
    if failures:
        for k, q, message in failures:
            print(f"FAILED (k={k}, q={q}): {message}")
        return 1
    total = sum(2 * (1 << k) + 1 for k in range(1, args.max_k + 1))
    print(f"all {total} targets realized and verified in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
