"""Shared helpers: definition-level brute-force oracles and graph generators.

The oracles here deliberately reimplement everything from the definitions
(itertools over vertex subsets, permutation checks for cycles) so the library
is always tested against an independent code path.
"""

from itertools import combinations, permutations
import random

from hypothesis import strategies as st

from altind import Graph, independent_set_count, minimal_ternary_decycling_sets


def low_bit_positions(mask: int):
    """Yield the set bit positions of a non-negative ``mask``, lowest first,
    by clearing its low bit one at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def induced(g: Graph, vertices) -> Graph:
    """G[vertices] with its vertices renumbered 0, 1, ... in ascending order;
    ``vertices`` is an iterable of vertex indices or a vertex mask."""
    if isinstance(vertices, int):
        vertices = low_bit_positions(vertices)
    index = {v: i for i, v in enumerate(sorted(vertices))}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph.from_edges(len(index), edges)


def without(g: Graph, vertices) -> Graph:
    """G - vertices: :func:`induced` on the other vertices."""
    drop = set(vertices)
    return induced(g, [v for v in range(g.n) if v not in drop])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def subdivided(m: int, edges) -> Graph:
    """The graph on vertices 0..m-1 plus fresh ones in which each ``(i, j, s)``
    of ``edges`` is an i-j path through s fresh vertices."""
    out = []
    n = m
    for i, j, s in edges:
        path = [i, *range(n, n + s), j]
        n += s
        out += zip(path, path[1:])
    return Graph.from_edges(n, out)


def subdivided_complete(m: int, s: int) -> Graph:
    """K_m with every edge replaced by a path through s fresh vertices."""
    return subdivided(m, [(i, j, s) for i, j in combinations(range(m), 2)])


def random_subdivided(rng: random.Random, max_m: int = 7, max_s: int = 3) -> Graph:
    """A random graph on 2..``max_m`` vertices, each edge replaced by a path
    through 0..``max_s`` fresh vertices."""
    m = rng.randrange(2, max_m + 1)
    p = rng.random()
    pairs = [pair for pair in combinations(range(m), 2) if rng.random() < p]
    return subdivided(m, [(i, j, rng.randrange(max_s + 1)) for i, j in pairs])


def theta_graph(*lengths: int) -> Graph:
    """Two poles 0 and 1 joined by internally disjoint paths of the given
    lengths, each at least 2."""
    return subdivided(2, [(0, 1, length - 1) for length in lengths])


def theta_ring(segments: int, length: int) -> Graph:
    """Poles 0..segments-1 in a ring, each consecutive pair joined by two
    internally disjoint paths of ``length`` edges, at least 2."""
    ring = [(i, (i + 1) % segments, length - 1) for i in range(segments)]
    return subdivided(segments, ring + ring)


def random_k_tree(rng: random.Random, k: int, n: int) -> Graph:
    """A random k-tree on n >= k + 1 vertices: K_{k+1}, then each new vertex
    joined to a k-clique already present.  It is chordal, so every chordless
    cycle is a triangle."""
    edges = list(combinations(range(k + 1), 2))
    cliques = list(combinations(range(k + 1), k))
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges += [(u, v) for u in base]
        cliques += [tuple(w for w in base if w != u) + (v,) for u in base]
    return Graph.from_edges(n, edges)


def relabeled(g: Graph, rng: random.Random) -> Graph:
    """An isomorphic copy of g under a random vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def graphs(draw, max_n: int = 9, min_n: int = 0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, keep in zip(pairs, picks) if keep])


# -- independence oracles ------------------------------------------------------


def brute_polynomial(g: Graph) -> list[int]:
    coeffs = [0] * (g.n + 1)
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            if all(not g.adj[u] >> v & 1 for u, v in combinations(subset, 2)):
                coeffs[k] += 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def brute_alternating(g: Graph) -> int:
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(brute_polynomial(g)))


def brute_count(g: Graph) -> int:
    return sum(brute_polynomial(g))


# -- cycle oracles -------------------------------------------------------------


def _induces_cycle(g: Graph, subset: tuple[int, ...]) -> bool:
    """G[subset] connected and 2-regular, i.e. exactly a chordless cycle."""
    sub = induced(g, subset)
    return all(row.bit_count() == 2 for row in sub.adj) and sub.is_connected()


def brute_chordless_sets(g: Graph) -> set[frozenset[int]]:
    found = set()
    for k in range(3, g.n + 1):
        for subset in combinations(range(g.n), k):
            if _induces_cycle(g, subset):
                found.add(frozenset(subset))
    return found


def brute_is_ternary(g: Graph) -> bool:
    return all(len(s) % 3 != 0 for s in brute_chordless_sets(g))


def brute_simple_cycle_lengths(g: Graph) -> set[int]:
    """Lengths of all simple cycles, by permutation check over vertex subsets."""
    lengths = set()
    for k in range(3, g.n + 1):
        if k in lengths:
            continue
        for subset in combinations(range(g.n), k):
            if _has_hamiltonian_cycle(g, subset):
                lengths.add(k)
                break
    return lengths


def _has_hamiltonian_cycle(g: Graph, subset: tuple[int, ...]) -> bool:
    first, *rest = subset
    for perm in permutations(rest):
        order = (first,) + perm
        if all(g.adj[order[i]] >> order[(i + 1) % len(order)] & 1 for i in range(len(order))):
            return True
    return False


def brute_has_cycle_not_div3(g: Graph) -> bool:
    return any(length % 3 != 0 for length in brute_simple_cycle_lengths(g))


def recursive_chordless_walk(adj, alive, budget):
    """Yield every chordless cycle of the subgraph induced by ``alive`` as a
    canonical vertex list, by recursive path extension from the smallest
    cycle vertex.  The reference for the library's explicit-stack walk: it
    yields the same cycles in the same order and charges ``budget`` once per
    path extension, with none of the walk's pruning, so the walk charges at
    most as much."""

    def extend(path, mask, s):
        budget.spend()
        last = path[-1]
        interior = mask & ~(1 << s) & ~(1 << last)
        above = alive & (-1 << (s + 1))
        for w in low_bit_positions(adj[last] & above & ~mask):
            if adj[w] & interior:
                continue  # chord to an interior path vertex
            if adj[w] >> s & 1:
                if path[1] < w:
                    yield path + [w]
            else:
                yield from extend(path + [w], mask | 1 << w, s)

    for s in low_bit_positions(alive):
        for a in low_bit_positions(adj[s] & alive & (-1 << (s + 1))):
            yield from extend([s, a], (1 << s) | (1 << a), s)


def walk_simple_cycle_lengths(g: Graph):
    """Yield the length of every simple cycle once (canonical direction), by
    depth-first path extension from the smallest cycle vertex.  Exponential;
    for graphs too large for :func:`brute_simple_cycle_lengths`."""
    adj = g.adj

    def extend(path, mask, s):
        last = path[-1]
        if len(path) >= 3 and adj[last] >> s & 1 and path[1] < last:
            yield len(path)
        for w in range(s + 1, g.n):
            if adj[last] >> w & 1 and not mask >> w & 1:
                yield from extend(path + [w], mask | 1 << w, s)

    for s in range(g.n):
        for a in range(s + 1, g.n):
            if adj[s] >> a & 1:
                yield from extend([s, a], (1 << s) | (1 << a), s)


def walk_has_cycle_not_div3(g: Graph) -> bool:
    return any(length % 3 != 0 for length in walk_simple_cycle_lengths(g))


# -- decycling oracles -----------------------------------------------------------


def brute_is_acyclic(g: Graph) -> bool:
    """Independent acyclicity test: DFS looking for a back edge."""
    seen = set()
    for start in range(g.n):
        if start in seen:
            continue
        stack = [(start, -1)]
        seen.add(start)
        while stack:
            v, parent = stack.pop()
            skipped_parent = False
            for u in low_bit_positions(g.adj[v]):
                if u == parent and not skipped_parent:
                    skipped_parent = True
                    continue
                if u in seen:
                    return False
                seen.add(u)
                stack.append((u, v))
    return True


def brute_min_decycling(g: Graph) -> tuple[int, tuple[int, ...]]:
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            if brute_is_acyclic(without(g, subset)):
                return k, subset
    raise AssertionError("unreachable: deleting everything is acyclic")


def brute_min_ternary_decycling(g: Graph) -> tuple[int, tuple[int, ...]]:
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            if brute_is_ternary(without(g, subset)):
                return k, subset
    raise AssertionError("unreachable: deleting everything is ternary")


def brute_ternary_decycling_sets(g: Graph) -> list[tuple[int, ...]]:
    out = []
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            if brute_is_ternary(without(g, subset)):
                out.append(subset)
    return out


def brute_minimal_ternary_decycling_sets(g: Graph) -> set[frozenset[int]]:
    all_sets = [frozenset(s) for s in brute_ternary_decycling_sets(g)]
    return {
        s for s in all_sets
        if not any(other < s for other in all_sets)
    }


def brute_middle_bound(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(min count, argmin): the first ternary decycling set, in size-then-
    lexicographic order, with the fewest independent sets."""
    witness = min(
        brute_ternary_decycling_sets(g),
        key=lambda subset: brute_count(induced(g, subset)),
    )
    return brute_count(induced(g, witness)), witness


def slow_middle_bound(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(min count, argmin) over the full list of minimal ternary decycling
    sets, counting each one, ties broken by (size, vertex tuple); for graphs
    too large for :func:`brute_middle_bound`."""
    sets, truncated = minimal_ternary_decycling_sets(g)
    assert not truncated
    witness = min(
        sets,
        key=lambda s: (independent_set_count(induced(g, s)), len(s), s),
    )
    return independent_set_count(induced(g, witness)), witness


# -- transversal oracles over explicit cycle vertex sets --------------------------


def combinations_min_transversal(cycles) -> tuple[int, tuple[int, ...]]:
    """Fewest vertices meeting every cycle, lexicographically first among
    those, by scanning subsets of the cycles' union in size-then-lex order."""
    sets = [frozenset(c) for c in cycles]
    universe = sorted(set().union(*sets))
    for k in range(len(universe) + 1):
        for subset in combinations(universe, k):
            if all(not s.isdisjoint(subset) for s in sets):
                return k, subset
    raise AssertionError("unreachable: the whole universe meets every cycle")


def include_first_min_transversal(masks) -> tuple[int, int]:
    """(size, witness mask) of the lexicographically smallest minimum
    transversal of the vertex ``masks``, by one include-first search.

    It deepens the size k from a greedy packing of disjoint masks.  At each
    k it takes the smallest vertex on a mask not yet hit and tries including
    it before excluding it, so it meets sets of one size in lexicographic
    order; it prunes a branch when more unhit masks stay pairwise disjoint
    above the current vertex than there is room left.
    """
    if not masks:
        return 0, 0
    masks = sorted(masks, key=int.bit_count)

    def packing(unhit, low, room):
        avail = -1 << low
        used = reach = count = 0
        for m in unhit:
            m &= avail
            if not m:
                return None
            reach |= m
            if not m & used:
                used |= m
                count += 1
                if count > room:
                    return None
        return count, reach

    def search(low, chosen, unhit, room):
        if not unhit:
            return chosen
        packed = packing(unhit, low, room)
        if packed is None:
            return None
        bit = packed[1] & -packed[1]
        v = bit.bit_length() - 1
        found = search(v + 1, chosen | bit, [m for m in unhit if not m & bit], room - 1)
        return search(v + 1, chosen, unhit, room) if found is None else found

    k = packing(masks, 0, len(masks))[0]
    while (found := search(0, 0, masks, k)) is None:
        k += 1
    return k, found


def berge_minimal_transversals(cycles) -> set[frozenset[int]]:
    """Inclusion-minimal sets meeting every cycle, by Berge's sequential
    dualization: add one cycle at a time, extend each transversal that
    misses it by one of its vertices, and keep the minimal results."""
    found = {frozenset()}
    for cycle in cycles:
        grown = {t if not t.isdisjoint(cycle) else t | {v}
                 for t in found for v in cycle}
        found = {t for t in grown if not any(o < t for o in grown)}
    return found


def milp_min_transversal(masks, n: int) -> tuple[int, tuple[int, ...]]:
    """(size, witness) of the lexicographically smallest minimum transversal
    of the vertex ``masks`` on ``n`` vertices, by integer programming.

    One ``scipy.optimize.milp`` (HiGHS) solve gives the least size k.  Then
    the vertices are fixed in ascending order: v is fixed in when some
    minimum set still holds it, with every earlier choice kept, and fixed
    out otherwise, one solve per vertex until k are in.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    if not masks:
        return 0, ()
    rows = np.array([[m >> v & 1 for v in range(n)] for m in masks], dtype=float)
    cover = LinearConstraint(rows, lb=1)
    cost = np.ones(n)
    integral = np.ones(n)

    def least(low, high):
        res = milp(cost, constraints=cover, integrality=integral, bounds=Bounds(low, high))
        return round(res.fun) if res.success else None

    low, high = np.zeros(n), np.ones(n)
    k = least(low, high)
    chosen = []
    for v in range(n):
        if len(chosen) == k:
            break
        low[v] = 1
        if least(low, high) == k:
            chosen.append(v)
        else:
            low[v] = high[v] = 0
    return k, tuple(chosen)
