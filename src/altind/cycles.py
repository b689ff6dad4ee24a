"""Chordless-cycle enumeration and the mod-3 cycle predicates.

A vertex subset induces a chordless cycle exactly when its induced subgraph
is connected and 2-regular.  The enumerator grows paths depth-first from the
smallest cycle vertex, only ever appending vertices adjacent to the path's
last vertex and non-adjacent to every interior vertex; adjacency to the start
closes a cycle.  Each cycle is produced once, in canonical orientation (start
at the smallest vertex, second vertex smaller than last).

A walk from s through its neighbour a yields a cycle only where it closes at
a *closer*, a neighbour b > a of s.  A closer is *blocked* once it is
adjacent to an interior path vertex, since closing at it would leave that
edge as a chord.  The interior only grows along a path, so once every closer
is blocked no extension of the path closes a cycle the walk yields, and the
walk stops extending it (it still closes at the last vertex's own
neighbours).  A start a with no closer, s's last neighbour above s, is not
walked at all.  Neither cut drops a cycle or reorders the rest.

The walk keeps its own stack instead of recursing: one frame per path vertex
after the start, holding the path's vertex mask, its interior mask, the
neighbours of the path without s (the closers its extensions find blocked)
and the extensions of the last vertex still to try.  It yields each cycle as
its vertex mask and length, and the canonical vertex order is read back off
the mask, since a chordless cycle's vertex set fixes it.  The walk visits
cycles in depth-first order, extensions in ascending vertex order, and
charges one expansion per path extension, the two-vertex start path
included; the unpruned reference recursion in the tests yields the same
cycles in the same order, and charges at least as much.

Whether some simple cycle, chordless or not, has length not divisible by 3
is decided from the chordless cycles alone, without walking the simple
cycles.  G has such a cycle (call this the claim) iff

  (A) some chordless cycle has length not divisible by 3, or
  (B) some cycle of G has a chord.

A implies the claim, since a chordless cycle is a simple cycle.  The claim
implies A or B: its witness cycle is either chordless or has a chord.  B
implies the claim: take a shortest cycle C with a chord uv.  The chord
splits C into cycles C1 and C2, both shorter than C, so both are chordless
(a chord of either would make it a shorter chorded cycle).  If C1 or C2 has
length not divisible by 3 it is the witness; otherwise
|C| = |C1| + |C2| - 2 = 1 (mod 3) and C is.

B is read off the census too: some cycle has a chord iff some chordless
cycle C has an edge uv whose ends both have a neighbour in one component K
of G - V(C).  If they do, a u-v path through K together with C - uv is a
cycle, and uv is its chord.  Conversely, split a shortest chorded cycle at
its chord uv into the chordless cycles C1 and C2 as above.  They meet only
in u and v, so C2 less u and v is a path in G - V(C1), inside one component
K, and u and v each have a neighbour on it.  Each end of such an edge has
two neighbours on C and one off it, so a chordless cycle with no edge
between two vertices of degree at least 3 is skipped without charge.  Every
other one costs one expansion and one :func:`components_of` pass: at most
one pass per chordless cycle the census already paid for.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .budget import Budget, ensure_budget
from .graph import Graph, bits, components_of, mask_of


class CycleReport(NamedTuple):
    """Chordless-cycle census plus the mod-3 classification flags.

    ``has_cycle_len_not_div3`` concerns all simple cycles, not only chordless
    ones (see the module docstring for how it is decided).
    """

    chordless_cycles: tuple[tuple[int, ...], ...]
    has_induced_3tilde: bool
    has_cycle_len_not_div3: bool


class CycleCensus(NamedTuple):
    """Vertex masks of the chordless cycles of one graph, for the solvers.

    ``masks`` holds every chordless cycle, ``ternary`` those whose length is
    divisible by 3 (the graph is ternary exactly when it is empty).  Distinct
    chordless cycles have distinct vertex sets, so no mask repeats.
    """

    masks: tuple[int, ...]
    ternary: tuple[int, ...]


def _chordless_iter(adj: tuple[int, ...], alive: int, budget: Budget) -> Iterator[tuple[int, int]]:
    """Yield every chordless cycle of the subgraph induced by ``alive`` once,
    as ``(vertex mask, length)``; :func:`_cycle_order` recovers its canonical
    vertex order."""
    for s in bits(alive):
        start = 1 << s
        above = alive & (-1 << (s + 1))
        firsts = adj[s] & above
        for a in bits(firsts):
            closers = firsts & (-1 << (a + 1))
            if not closers:
                break  # a is s's last neighbour above s: no cycle closes
            budget.spend()
            mask = start | 1 << a
            row = adj[a]
            # One frame per path vertex past s: the path's mask, its interior
            # (the path without s and its last vertex), the neighbours of the
            # path without s (the closers blocked after one more extension),
            # and the last vertex's extensions still to try.
            stack = [(mask, 0, row, iter(bits(row & above & ~mask)))]
            while stack:
                mask, interior, blocked, todo = stack[-1]
                for w in todo:
                    row = adj[w]
                    if row & interior:
                        continue  # chord to an interior path vertex
                    if row & start:
                        if a < w:
                            yield mask | 1 << w, len(stack) + 2
                    elif closers & ~blocked:
                        budget.spend()
                        grown = mask | 1 << w
                        stack.append((grown, mask ^ start, blocked | row,
                                      iter(bits(row & above & ~grown))))
                        break
                else:
                    stack.pop()


def _cycle_order(adj: tuple[int, ...], mask: int) -> list[int]:
    """The vertices of the chordless cycle ``mask`` in canonical orientation:
    from its smallest vertex, toward the smaller of that vertex's two cycle
    neighbours."""
    first = (mask & -mask).bit_length() - 1
    prev, cur = first, bits(adj[first] & mask)[0]
    order = [first]
    while cur != first:
        order.append(cur)
        # cur has exactly two neighbours on the cycle; step to the other one.
        prev, cur = cur, (adj[cur] & mask & ~(1 << prev)).bit_length() - 1
    return order


def cycle_census(g: Graph, budget: "Budget | None" = None) -> CycleCensus:
    """Enumerate the chordless cycles of ``g`` once, as vertex masks."""
    budget = ensure_budget(budget)
    masks: list[int] = []
    ternary: list[int] = []
    for m, length in _chordless_iter(g.adj, g.all_mask, budget):
        masks.append(m)
        if length % 3 == 0:
            ternary.append(m)
    return CycleCensus(tuple(masks), tuple(ternary))


def chordless_cycles(g: Graph, budget: "Budget | None" = None) -> CycleReport:
    """Enumerate every chordless cycle and classify lengths mod 3.

    Each cycle is its vertex tuple in canonical orientation.  The report is
    read off one :func:`cycle_census`.
    """
    budget = ensure_budget(budget)
    census = cycle_census(g, budget)
    cycles = tuple(tuple(_cycle_order(g.adj, m)) for m in census.masks)
    return CycleReport(
        cycles, bool(census.ternary), _cycle_length_not_div3(g, census, budget)
    )


def is_ternary(g: Graph, budget: "Budget | None" = None) -> bool:
    """True when no chordless cycle has length divisible by 3.

    Exhaustive with early exit on the first witness.  It enumerates on its
    own, independently of any census, so it can re-check solver witnesses.
    """
    return _is_ternary_mask(g.adj, g.all_mask, ensure_budget(budget))


def _is_ternary_mask(adj: tuple[int, ...], alive: int, budget: Budget) -> bool:
    """:func:`is_ternary` for the subgraph induced by ``alive``, enumerated
    in place: the same walk, in the same order, as on that subgraph built
    with its vertices renumbered in ascending order."""
    for _, length in _chordless_iter(adj, alive, budget):
        if length % 3 == 0:
            return False
    return True


def _cycle_length_not_div3(g: Graph, census: CycleCensus, budget: Budget) -> bool:
    """True when some simple cycle of ``g`` has length not divisible by 3,
    read off its census (the module docstring's rule)."""
    if len(census.masks) > len(census.ternary):
        return True
    adj = g.adj
    heavy = mask_of(v for v in range(g.n) if adj[v].bit_count() >= 3)
    for cycle in census.masks:
        ends = cycle & heavy
        if not any(adj[u] & ends for u in bits(ends)):
            continue  # no edge of the cycle joins two vertices of degree >= 3
        budget.spend()
        parts = components_of(adj, g.all_mask & ~cycle)
        for u in bits(ends):
            for v in bits(adj[u] & ends & (-1 << (u + 1))):
                if any(adj[u] & part and adj[v] & part for part in parts):
                    return True
    return False


def has_cycle_length_not_div3(g: Graph, budget: "Budget | None" = None) -> bool:
    """True when some simple cycle (induced or not) has length not divisible
    by 3; takes its own census."""
    budget = ensure_budget(budget)
    return _cycle_length_not_div3(g, cycle_census(g, budget), budget)
