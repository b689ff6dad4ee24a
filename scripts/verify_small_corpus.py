#!/usr/bin/env python3
"""Exhaustively verify every bound on all labeled graphs up to a given order.

Exits 1 when any check is violated or left not evaluated, or any graph
reports an internal error.

Usage: python scripts/verify_small_corpus.py [--max-n 5] [--jobs 4]
"""

import argparse
import json
import sys
import time

from altind import CHECK_NAMES, enumerate_labeled_graphs, run_corpus, to_graph6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    if args.max_n > 6:
        print("labeled enumeration above n=6 is unreasonably large", file=sys.stderr)
        return 2

    lines = []
    for n in range(args.max_n + 1):
        lines.extend(to_graph6(g) for g in enumerate_labeled_graphs(n))
    print(f"corpus: all labeled graphs with n <= {args.max_n} ({len(lines)} graphs)")

    start = time.time()
    _, errors, summary = run_corpus(lines, jobs=args.jobs)
    elapsed = time.time() - start

    assert not errors
    print(f"verified in {elapsed:.1f}s with jobs={args.jobs}")
    for name in CHECK_NAMES:
        stats = summary["checks"][name]
        print(
            f"  {name:22s} applicable={stats['applicable']:6d} "
            f"satisfied={stats['satisfied']:6d} tight={stats['tight']:6d} "
            f"violated={stats['violated']} not_evaluated={stats['not_evaluated']}"
        )
    internal = summary.get("internal_errors", [])
    not_evaluated = sum(stats["not_evaluated"] for stats in summary["checks"].values())
    for title, found in (("violations", summary["violations"]), ("internal errors", internal)):
        if found:
            print(f"{title}:")
            print(json.dumps(found, indent=2))
    if not_evaluated:
        print(f"{not_evaluated} checks not evaluated")
    if summary["violations"] or internal or not_evaluated:
        return 1
    print("no violations, internal errors or unevaluated checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
