#!/usr/bin/env python3
"""Survey how often the ternary-decycling chain improves on the older bounds.

For every labeled graph on n vertices, compare 2^phi3 against 2^phi and,
where applicable, 2^nu - nu, and count strict improvements and ties.  Every
bound is read off one ``verify_graph`` report per graph.

Usage: python scripts/bound_gap_survey.py [--n 5]
"""

import argparse
import sys

from altind import enumerate_labeled_graphs, verify_graph


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5)
    args = parser.parse_args()
    if args.n > 6:
        print("labeled enumeration above n=6 is unreasonably large", file=sys.stderr)
        return 2

    total = 0
    sharper_than_phi = 0
    middle_beats_pow2 = 0
    sharper_than_cyclomatic = 0
    cyclomatic_applicable = 0
    magnitude_tight = 0
    for g in enumerate_labeled_graphs(args.n):
        total += 1
        report = verify_graph(g)
        checks = report.checks
        pow2_phi3 = checks["chain_upper"].bound
        middle = checks["chain_lower"].bound
        if pow2_phi3 < checks["decycling_bound"].bound:
            sharper_than_phi += 1
        if middle < pow2_phi3:
            middle_beats_pow2 += 1
        if abs(report.alternating) == middle:
            magnitude_tight += 1
        if checks["cyclomatic_bound"].applicable:
            cyclomatic_applicable += 1
            if pow2_phi3 < checks["cyclomatic_bound"].bound:
                sharper_than_cyclomatic += 1

    print(f"labeled graphs on n={args.n}: {total}")
    print(f"  2^phi3 strictly below 2^phi:            {sharper_than_phi:6d}")
    print(f"  middle bound strictly below 2^phi3:     {middle_beats_pow2:6d}")
    print(f"  |I(G;-1)| equal to the middle bound:    {magnitude_tight:6d}")
    print(
        f"  2^phi3 below 2^nu - nu (when applicable): {sharper_than_cyclomatic:6d}"
        f" of {cyclomatic_applicable}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
