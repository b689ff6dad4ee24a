#!/usr/bin/env python3
"""Survey how often the ternary-decycling chain improves on the older bounds.

For every labeled graph on n vertices, compare 2^phi3 against 2^phi and,
where applicable, 2^nu - nu, and count strict improvements and ties.

Usage: python scripts/bound_gap_survey.py [--n 5]
"""

import argparse
import sys

from altind import (
    alternating_number,
    decycling_summary,
    enumerate_labeled_graphs,
    has_cycle_length_not_div3,
)


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
        res = decycling_summary(g)
        alt = abs(alternating_number(g))
        if res.phi3 < res.phi:
            sharper_than_phi += 1
        if res.middle_bound < 1 << res.phi3:
            middle_beats_pow2 += 1
        if alt == res.middle_bound:
            magnitude_tight += 1
        if has_cycle_length_not_div3(g):
            cyclomatic_applicable += 1
            if 1 << res.phi3 < (1 << res.nu) - res.nu:
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
