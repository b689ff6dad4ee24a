"""graph6 corpora for the benchmark workloads.

labeled-n6 depends on the seed; the other workloads are one frozen draw
(see FROZEN_SEED).  Everything here is self-contained: graphs are built as
edge lists and encoded to graph6 by this module, so the program under test
only ever receives the generated files, and a change to the program's own
generators cannot change what the benchmark feeds it.

Usage: python3 perfbench/corpus.py WORKLOAD SEED > corpus.g6
"""

from __future__ import annotations

import random
import sys

Edges = list[tuple[int, int]]

# The random and adversarial workloads are one fixed draw, taken with
# FROZEN_SEED, and do not depend on --seed.  Per-graph verify time is
# heavy-tailed and depends on the vertex labels, so fresh draws per seed moved
# a corpus's total verify time by 0.2 to 0.46 of its median (interquartile
# range over six seeds), more than any bound a benchmark may set; NOTES.md
# has the measurements.
FROZEN_SEED = 0

# G(n, p) tiers as (n, p, graphs).
GNP_TABLE_TIERS = ((14, 0.25, 13), (16, 0.3, 13), (18, 0.2, 13), (18, 0.3, 13))
GNP_BRANCH_TIERS = ((20, 0.25, 2), (22, 0.15, 2), (24, 0.13, 2), (26, 0.12, 2))

# Deterministic families: K_m with s subdivision vertices per edge, and the
# doubling-gadget chain.  Every copy after the first is randomly relabeled,
# so each copy is a distinct graph6 line with the same structure.
SUBDIVIDED_K = ((4, 1), (5, 1), (6, 1), (4, 2), (5, 2))
DOUBLER_KS = range(1, 7)
ADVERSARIAL_COPIES = 2

LABELED_MAX_N = 6
LABELED_CLASSES = 17


def graph6(n: int, edges: Edges) -> str:
    """graph6 line for a graph on n <= 62 vertices (upper triangle, column order)."""
    if not 0 <= n <= 62:
        raise ValueError(f"n={n} outside the single-byte graph6 range")
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    out = bytearray([n + 63])
    group = filled = 0
    for j in range(1, n):
        for i in range(j):
            group = group << 1 | (adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group = filled = 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return out.decode("ascii")


def pairs(n: int) -> Edges:
    return [(i, j) for j in range(1, n) for i in range(j)]


def gnp(rng: random.Random, n: int, p: float) -> tuple[int, Edges]:
    return n, [pair for pair in pairs(n) if rng.random() < p]


def subdivided_complete(m: int, s: int) -> tuple[int, Edges]:
    """K_m with every edge replaced by a path through s fresh vertices."""
    edges: Edges = []
    n = m
    for i, j in pairs(m):
        prev = i
        for _ in range(s):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, j))
    return n, edges


def doubler_chain(k: int) -> tuple[int, Edges]:
    """A triangle on 0, 1, 2 plus k-1 doubling gadgets, each bridged to vertex 0.

    A gadget is a triangle a-b-c with a path a-d-e-f; vertex 0 reaches its
    contact e through one fresh bridge vertex.  |I(G;-1)| = 2^k and
    phi3 = k, so the bound chain is tight.
    """
    n, edges = 3, [(0, 1), (0, 2), (1, 2)]
    for _ in range(k - 1):
        bridge, a = n, n + 1
        b, c, d, e, f = a + 1, a + 2, a + 3, a + 4, a + 5
        edges += [(0, bridge), (bridge, e), (a, b), (a, c), (b, c), (a, d), (d, e), (e, f)]
        n += 7
    return n, edges


def relabel(rng: random.Random, n: int, edges: Edges) -> tuple[int, Edges]:
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[u], perm[v]) for u, v in edges]


def labeled(n: int, residue: "int | None" = None) -> list[str]:
    """Labeled graphs on n vertices in edge-mask order, optionally only the
    masks congruent to ``residue`` mod LABELED_CLASSES."""
    ps = pairs(n)
    return [
        graph6(n, [ps[i] for i in range(len(ps)) if mask >> i & 1])
        for mask in range(1 << len(ps))
        if residue is None or mask % LABELED_CLASSES == residue
    ]


def labeled_n6(seed: int) -> list[str]:
    # Every labeled graph on n <= 5, plus the ninth of the 32,768 labeled
    # 6-vertex graphs whose edge mask is congruent to the seed mod 9; nine
    # consecutive seeds cover all 33,868 labeled graphs on n <= 6.  The
    # classes differ in cost by far less than the run-to-run noise.
    lines = [line for n in range(LABELED_MAX_N) for line in labeled(n)]
    return lines + labeled(LABELED_MAX_N, seed % LABELED_CLASSES)


def _tiers(tiers) -> list[str]:
    lines = []
    for n, p, count in tiers:
        rng = random.Random(f"{FROZEN_SEED}:{n}:{p}")  # one stream per tier
        lines += [graph6(*gnp(rng, n, p)) for _ in range(count)]
    return lines


def gnp_table(seed: int) -> list[str]:
    return _tiers(GNP_TABLE_TIERS)


def gnp_branch(seed: int) -> list[str]:
    return _tiers(GNP_BRANCH_TIERS)


def adversarial(seed: int) -> list[str]:
    rng = random.Random(FROZEN_SEED)
    bases = [subdivided_complete(m, s) for m, s in SUBDIVIDED_K]
    bases += [doubler_chain(k) for k in DOUBLER_KS]
    return [
        graph6(*(relabel(rng, n, edges) if copy else (n, edges)))
        for copy in range(ADVERSARIAL_COPIES)
        for n, edges in bases
    ]


WORKLOADS = {
    "labeled-n6": labeled_n6,
    "gnp-table": gnp_table,
    "gnp-branch": gnp_branch,
    "adversarial": adversarial,
}


def generate(workload: str, seed: int) -> list[str]:
    """The corpus of ``workload`` for ``seed``, as graph6 lines."""
    return WORKLOADS[workload](seed)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: corpus.py {{{','.join(WORKLOADS)}}} SEED")
    sys.stdout.write("".join(line + "\n" for line in generate(sys.argv[1], int(sys.argv[2]))))
