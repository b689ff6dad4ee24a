"""Chordless-cycle enumeration and the mod-3 cycle predicates.

A vertex subset induces a chordless cycle exactly when its induced subgraph
is connected and 2-regular.  The enumerator grows paths depth-first from the
smallest cycle vertex, only ever appending vertices adjacent to the path's
last vertex and non-adjacent to every interior vertex; adjacency to the start
closes a cycle.  Each cycle is produced once, in canonical orientation (start
at the smallest vertex, second vertex smaller than last).

The walk keeps its own stack instead of recursing: one frame per path vertex
after the start, holding the path's vertex mask, its interior mask and the
extensions of the last vertex still to try.  It yields each cycle as its
vertex mask and length, and the canonical vertex order is read back off the
mask, since a chordless cycle's vertex set fixes it.  The walk visits cycles
in depth-first order, extensions in ascending vertex order, and charges one
expansion per path extension, the two-vertex start path included; the
reference recursion in the tests yields the same cycles in the same order
for the same charge.

Whether some simple cycle, chordless or not, has length not divisible by 3
is decided from the chordless cycles plus a polynomial chord test, without
walking the simple cycles.  G has such a cycle (call this the claim) iff

  (A) some chordless cycle has length not divisible by 3, or
  (B) some cycle of G has a chord.

A implies the claim, since a chordless cycle is a simple cycle.  The claim
implies A or B: its witness cycle is either chordless or has a chord.  B
implies the claim: take a shortest cycle C with a chord uv.  The chord
splits C into cycles C1 and C2, both shorter than C, so both are chordless
(a chord of either would make it a shorter chorded cycle).  If C1 or C2 has
length not divisible by 3 it is the witness; otherwise
|C| = |C1| + |C2| - 2 = 1 (mod 3) and C is.

No cycle has a chord exactly when every 2-connected block of G is minimally
2-connected (Dirac 1967, Plummer 1968).  B is decided edge by edge: uv is a
chord of some cycle iff G - uv holds two internally disjoint u-v paths.
Each endpoint of a chord has two cycle neighbours besides the other, so only
edges between vertices of degree at least 3 are tried.  u and v are not
adjacent in G - uv, so by Menger's theorem the two paths exist iff some u-v
path P exists and no single vertex w separates u from v in G - uv - w.  A
separating vertex lies on every u-v path, so testing the interior vertices
of one path P is enough.  The test charges one expansion per edge tried and
one per separation test, and costs O(m n (n + m)) bit operations, whatever
the number of chordless cycles.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .budget import Budget, ensure_budget
from .graph import Graph, bits, mask_of


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
        for a in bits(adj[s] & above):
            budget.spend()
            mask = start | 1 << a
            # One frame per path vertex past s: the path's mask, its interior
            # (the path without s and its last vertex), and the last vertex's
            # extensions still to try.
            stack = [(mask, 0, iter(bits(adj[a] & above & ~mask)))]
            while stack:
                mask, interior, todo = stack[-1]
                for w in todo:
                    row = adj[w]
                    if row & interior:
                        continue  # chord to an interior path vertex
                    if row & start:
                        if a < w:
                            yield mask | 1 << w, len(stack) + 2
                    else:
                        budget.spend()
                        grown = mask | 1 << w
                        stack.append((grown, mask ^ start, iter(bits(row & above & ~grown))))
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


def _bfs_layers(adj: tuple[int, ...], u: int, v: int, avoid: int = 0) -> "list[int] | None":
    """Breadth-first layers from ``u`` in G - uv - ``avoid`` (a vertex mask
    without u and v), up to the last one before ``v``; None when v is not
    reached."""
    layers = [1 << u]
    seen = 1 << u | 1 << v | avoid
    frontier = adj[u] & ~seen
    while frontier:
        layers.append(frontier)
        seen |= frontier
        reach = 0
        for w in bits(frontier):
            reach |= adj[w]
        if reach >> v & 1:
            return layers
        frontier = reach & ~seen
    return None


def _is_chord(adj: tuple[int, ...], u: int, v: int, budget: Budget) -> bool:
    """True when the edge uv is a chord of some cycle: G - uv is u-v
    connected, and no interior vertex of one u-v path separates u from v."""
    layers = _bfs_layers(adj, u, v)
    if layers is None:
        return False
    w = v
    for layer in reversed(layers[1:]):
        before = layer & adj[w]
        w = (before & -before).bit_length() - 1
        budget.spend()
        if _bfs_layers(adj, u, v, 1 << w) is None:
            return False
    return True


def _has_chorded_cycle(adj: tuple[int, ...], n: int, budget: Budget) -> bool:
    """True when some cycle has a chord (disjunct B of the module docstring)."""
    heavy = mask_of(v for v in range(n) if adj[v].bit_count() >= 3)
    for u in bits(heavy):
        for v in bits(adj[u] & heavy & (-1 << (u + 1))):
            budget.spend()
            if _is_chord(adj, u, v, budget):
                return True
    return False


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
    read off one :func:`cycle_census`, plus the chord test when every
    chordless cycle is ternary.
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
    read off its census plus the chord test (the module docstring's rule)."""
    return len(census.masks) > len(census.ternary) or _has_chorded_cycle(
        g.adj, g.n, budget
    )


def has_cycle_length_not_div3(g: Graph, budget: "Budget | None" = None) -> bool:
    """True when some simple cycle (induced or not) has length not divisible
    by 3; takes its own census."""
    budget = ensure_budget(budget)
    return _cycle_length_not_div3(g, cycle_census(g, budget), budget)
