"""Chordless-cycle enumeration and the mod-3 cycle predicates.

A vertex subset induces a chordless cycle exactly when its induced subgraph
is connected and 2-regular.  The enumerator grows paths depth-first from the
smallest cycle vertex, only ever appending vertices adjacent to the path's
last vertex and non-adjacent to every interior vertex; adjacency to the start
closes a cycle.  Each cycle is produced once, in canonical orientation (start
at the smallest label, second vertex smaller than last).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .budget import Budget, BudgetExceededError, ensure_budget
from .graph import Graph, iter_bits, mask_of


@dataclass(frozen=True)
class CycleReport:
    """Chordless-cycle census plus the mod-3 classification flags.

    ``has_cycle_len_not_div3`` concerns all simple cycles, not only chordless
    ones; it is None when its enumeration exhausted the expansion budget.
    """

    chordless_cycles: tuple[tuple[int, ...], ...]
    has_induced_3tilde: bool
    has_cycle_len_not_div3: "bool | None"


@dataclass(frozen=True)
class CycleCensus:
    """Vertex masks of the chordless cycles of one graph, for the solvers.

    ``masks`` holds every chordless cycle, ``ternary`` those whose length is
    divisible by 3 (the graph is ternary exactly when it is empty).  Masks use
    the graph's vertex indices, not its labels; distinct chordless cycles have
    distinct vertex sets, so no mask repeats.
    """

    masks: tuple[int, ...]
    ternary: tuple[int, ...]


def _chordless_iter(adj: tuple[int, ...], n: int, budget: Budget) -> Iterator[list[int]]:
    """Yield every chordless cycle once, as a canonical vertex list."""

    def extend(path: list[int], mask: int, s: int) -> Iterator[list[int]]:
        budget.spend()
        last = path[-1]
        interior = mask & ~(1 << s) & ~(1 << last)
        above = -1 << (s + 1)
        for w in iter_bits(adj[last] & above & ~mask):
            if adj[w] & interior:
                continue  # chord to an interior path vertex
            if adj[w] >> s & 1:
                if path[1] < w:
                    yield path + [w]
            else:
                yield from extend(path + [w], mask | 1 << w, s)

    for s in range(n):
        for a in iter_bits(adj[s] & (-1 << (s + 1))):
            yield from extend([s, a], (1 << s) | (1 << a), s)


def _simple_cycle_lengths(adj: tuple[int, ...], n: int, budget: Budget) -> Iterator[int]:
    """Yield the length of every simple cycle once (canonical direction)."""

    def extend(path: list[int], mask: int, s: int) -> Iterator[int]:
        budget.spend()
        last = path[-1]
        if len(path) >= 3 and adj[last] >> s & 1 and path[1] < last:
            yield len(path)
        above = -1 << (s + 1)
        for w in iter_bits(adj[last] & above & ~mask):
            yield from extend(path + [w], mask | 1 << w, s)

    for s in range(n):
        for a in iter_bits(adj[s] & (-1 << (s + 1))):
            yield from extend([s, a], (1 << s) | (1 << a), s)


def cycle_census(g: Graph, budget: "Budget | None" = None) -> CycleCensus:
    """Enumerate the chordless cycles of ``g`` once, as vertex masks."""
    budget = ensure_budget(budget)
    masks: list[int] = []
    ternary: list[int] = []
    for cyc in _chordless_iter(g.adj, g.n, budget):
        m = mask_of(cyc)
        masks.append(m)
        if len(cyc) % 3 == 0:
            ternary.append(m)
    return CycleCensus(tuple(masks), tuple(ternary))


def chordless_cycles(g: Graph, budget: "Budget | None" = None) -> CycleReport:
    """Enumerate every chordless cycle and classify lengths mod 3.

    Cycles are reported in the graph's original labels.
    """
    budget = ensure_budget(budget)
    cycles: list[tuple[int, ...]] = []
    has3 = False
    for cyc in _chordless_iter(g.adj, g.n, budget):
        cycles.append(tuple(g.labels[v] for v in cyc))
        if len(cyc) % 3 == 0:
            has3 = True
    try:
        not_div3 = has_cycle_length_not_div3(g, budget=budget)
    except BudgetExceededError:
        not_div3 = None
    return CycleReport(tuple(cycles), has3, not_div3)


def is_ternary(g: Graph, budget: "Budget | None" = None) -> bool:
    """True when no chordless cycle has length divisible by 3.

    Exhaustive with early exit on the first witness.  It enumerates on its
    own, independently of any census, so it can re-check solver witnesses.
    """
    budget = ensure_budget(budget)
    for cyc in _chordless_iter(g.adj, g.n, budget):
        if len(cyc) % 3 == 0:
            return False
    return True


def has_cycle_length_not_div3(g: Graph, budget: "Budget | None" = None) -> bool:
    """True when some simple cycle (induced or not) has length not divisible by 3."""
    budget = ensure_budget(budget)
    for length in _simple_cycle_lengths(g.adj, g.n, budget):
        if length % 3 != 0:
            return True
    return False
