"""Exact decycling-type invariants via chordless-cycle transversals.

Deleting a vertex set S from G leaves exactly the chordless cycles of G that
avoid S (a chord only ever involves the cycle's own vertices), so:

  * G - S is acyclic  iff  S meets every chordless cycle of G
    (a surviving cycle would contain a surviving chordless cycle), and
  * G - S is ternary  iff  S meets every chordless cycle of length
    divisible by 3.

Both invariants are minimum transversals (hitting sets) of a list of cycle
vertex masks, and each transversal problem has one exact solver.  The lists
come from one :class:`~altind.cycles.CycleCensus` per graph; no solver
enumerates cycles itself.

Minimum transversal (phi, phi3): iterative deepening on the size k, starting
at a greedy packing of vertex-disjoint cycles.  At each k a depth-first
search takes the smallest vertex that lies on some cycle not yet hit, and
tries including it before excluding it.  Vertices are decided in ascending
order along every path, and every vertex below the current one is out of the
set, so each node carries a packing bound: cycles that stay pairwise
disjoint above the current vertex each need a vertex of their own, so more
of them than the room left proves the branch empty.  A vertex skipped
because it lies on no cycle left unhit can never be in a minimum solution
(dropping it would leave a smaller transversal), so skipping it loses no
optimum; the search is then an include-first walk over an ascending decision
order, whose first hit among sets of one size is the lexicographically
smallest.  No smaller size has a solution, so that first hit is the
lexicographically smallest minimum transversal.

Minimal transversals: MMCS (Murakami and Uno, "Efficient algorithms for
dualizing large-scale hypergraphs", DAM 2014).  It grows a set one vertex at
a time, keeps for every chosen vertex the bitset of cycles that only it hits
(``crit``) and the bitset of cycles nothing hits yet (``uncov``), branches on
the vertices of one unhit cycle, and abandons a branch as soon as some chosen
vertex loses its last private cycle.  Every emitted set is therefore
minimal, and each minimal set is emitted once.

Middle bound: the same MMCS walk, pruned by the independent-set count.  The
count of G[S] never decreases as S grows, and MMCS only grows S along a
branch, so a partial set that already counts more than the best minimal set
found cannot lead to a better one.  The bound starts at the count of the
phi3 witness: it is minimum, hence minimal, hence a candidate.  Ties are
never cut, so the witness is still the first attaining set in (size, vertex
tuple) order.

Witnesses are re-verified with the independent acyclicity/ternary
predicates, except an empty phi3 witness: re-checking G - {} = G would rerun
the census's own enumerator on the census's own graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget, ensure_budget
from .cycles import CycleCensus, cycle_census, is_ternary
from .graph import Graph, bits, iter_bits
from .indpoly import _IntEngine, independent_set_count


@dataclass(frozen=True)
class DecyclingResult:
    """Decycling invariants of one graph, with verified witnesses."""

    phi: int
    phi_witness: tuple[int, ...]
    phi3: int
    phi3_witness: tuple[int, ...]
    nu: int
    middle_bound: int
    middle_witness: tuple[int, ...]


def cyclomatic_number(g: Graph) -> int:
    """e - n + q: the number of edges outside a spanning forest."""
    return g.edge_count() - g.n + g.component_count()


# -- transversal machinery -----------------------------------------------------


def _labeled(g: Graph, mask: int) -> tuple[int, ...]:
    """The vertices of ``mask`` in the caller's labels, ascending."""
    return tuple(g.labels[v] for v in iter_bits(mask))


def _incidence(masks: "tuple[int, ...]") -> list[int]:
    """``on[v]``: bitset of the indices of the masks that contain vertex v."""
    on = [0] * max((m.bit_length() for m in masks), default=0)
    for i, m in enumerate(masks):
        for v in iter_bits(m):
            on[v] |= 1 << i
    return on


def _min_transversal(masks: "tuple[int, ...]", budget: Budget) -> tuple[int, int]:
    """Smallest vertex set meeting every mask: (size, witness mask).

    The witness is lexicographically smallest among minimum solutions.
    """
    if not masks:
        return 0, 0
    # Short cycles first: the greedy packing then tends to find more of them.
    masks = sorted(masks, key=int.bit_count)
    on = _incidence(masks)

    def packing(uncov: int, avail: int) -> int:
        """Greedy count of unhit masks pairwise disjoint within ``avail``;
        more than any room when some unhit mask has no vertex there."""
        used = 0
        count = 0
        for i in iter_bits(uncov):
            m = masks[i] & avail
            if not m:
                return len(masks) + 1
            if not m & used:
                used |= m
                count += 1
        return count

    def search(low: int, chosen: int, uncov: int, room: int) -> "int | None":
        budget.spend()
        if not uncov:
            return chosen
        if packing(uncov, -1 << low) > room:
            return None
        v = low
        while not on[v] & uncov:
            v += 1
        found = search(v + 1, chosen | 1 << v, uncov & ~on[v], room - 1)
        if found is None:
            found = search(v + 1, chosen, uncov, room)
        return found

    everything = (1 << len(masks)) - 1
    k = packing(everything, -1)
    while True:
        found = search(0, 0, everything, k)
        if found is not None:
            return k, found
        k += 1


def _mmcs(masks: "tuple[int, ...]", budget: Budget, grow, leaf) -> None:
    """Walk the inclusion-minimal transversals of ``masks`` by MMCS.

    ``grow(chosen, value, v, uncov)`` gives the value carried by
    ``chosen | 1 << v``, whose unhit masks are ``uncov``, or None to cut that
    branch; ``leaf(chosen, value)`` receives every minimal transversal the
    search reaches and returns True to stop it.  The root carries 1.
    """
    on = _incidence(masks)

    def search(chosen: int, value, cand: int, crit: dict[int, int], uncov: int) -> bool:
        budget.spend()
        if not uncov:
            return leaf(chosen, value)
        # Branch on the unhit cycle with the fewest candidate vertices.
        branch = cand
        for i in iter_bits(uncov):
            c = masks[i] & cand
            if c.bit_count() < branch.bit_count():
                branch = c
        cand &= ~branch
        for v in iter_bits(branch):
            hit = on[v]
            kept = {u: c & ~hit for u, c in crit.items()}
            if all(kept.values()):
                grown = grow(chosen, value, v, uncov & ~hit)
                if grown is not None:
                    kept[v] = uncov & hit
                    if search(chosen | 1 << v, grown, cand, kept, uncov & ~hit):
                        return True
            cand |= 1 << v
        return False

    universe = 0
    for m in masks:
        universe |= m
    search(0, 1, universe, {}, (1 << len(masks)) - 1)


def _minimal_transversal_masks(
    masks: "tuple[int, ...]",
    budget: Budget,
    cap: "int | None" = None,
) -> tuple[list[int], bool]:
    """All inclusion-minimal transversals, sorted by (size, vertex tuple).

    With a ``cap``, the search stops once it has found ``cap + 1`` sets and
    reports ``truncated``; the smallest ``cap`` of the sets found are kept.
    """
    found: list[int] = []

    def leaf(chosen: int, _) -> bool:
        found.append(chosen)
        return cap is not None and len(found) > cap

    _mmcs(masks, budget, lambda chosen, value, v, uncov: value, leaf)
    truncated = cap is not None and len(found) > cap
    found.sort(key=lambda m: (m.bit_count(), bits(m)))
    return (found[:cap] if truncated else found), truncated


def _least_minimal_count(
    g: Graph, masks: "tuple[int, ...]", seed: int, budget: Budget
) -> tuple[int, int]:
    """Fewest independent sets of G[D] over the minimal transversals D of
    ``masks``, and the first D attaining it in (size, vertex tuple) order.

    MMCS carries i(S), the independent-set count of G[S], as
    i(S + v) = i(S) + i(S - N(v)).  Each vertex added raises i(S) by at least
    one (its own singleton), so every transversal below S counts at least
    i(S), and at least i(S) + 1 while some mask is still unhit.  A branch is
    cut once that exceeds the best count found, which starts at the count of
    ``seed``, itself a minimal transversal.  Equal counts are never cut, so
    every set attaining the minimum is reached and the tie-break sees them
    all.  One engine serves every count: its memo is keyed by component masks
    of g, which mean the same subgraph whichever set reached them.
    """
    engine = _IntEngine(g.adj, 1, budget)
    best = (engine.eval_mask(seed), seed.bit_count(), bits(seed), seed)

    def grow(chosen: int, count: int, v: int, uncov: int) -> "int | None":
        count += engine.eval_mask(chosen & ~g.adj[v])
        return None if count + (uncov != 0) > best[0] else count

    def leaf(chosen: int, count: int) -> bool:
        nonlocal best
        best = min(best, (count, chosen.bit_count(), bits(chosen), chosen))
        return False

    _mmcs(masks, budget, grow, leaf)
    count, _, _, mask = best
    # Cross-check the winner on the relabeled induced subgraph.
    if independent_set_count(g.induced_subgraph(mask), budget=budget) != count:
        raise AssertionError("independent-set count mismatch on the middle witness")
    return count, mask


def _min_ternary_mask(g: Graph, ternary: "tuple[int, ...]", budget: Budget) -> int:
    """The phi3 witness mask, re-checked to leave a ternary graph.

    With no ternary cycle the witness is empty and is not re-checked: that
    would rerun the census's own enumerator on the census's own graph.
    """
    if not ternary:
        return 0
    _, mask = _min_transversal(ternary, budget)
    if not is_ternary(g.delete_vertices(mask), budget=budget):
        raise AssertionError("ternary decycling witness failed the ternary re-check")
    return mask


def _phi_half(g: Graph, census: CycleCensus, budget: Budget) -> tuple[int, int]:
    """phi and its witness mask, re-checked to leave a forest."""
    size, mask = _min_transversal(census.masks, budget)
    if not g.delete_vertices(mask).is_acyclic():
        raise AssertionError("decycling witness failed the acyclicity re-check")
    return size, mask


def _ternary_half(g: Graph, census: CycleCensus, budget: Budget) -> tuple[int, int, int]:
    """The phi3 witness mask, the middle bound and the middle witness mask.

    The middle bound is searched from the phi3 witness, which is minimum,
    hence minimal, hence one of the candidates.
    """
    if not census.ternary:
        return 0, 1, 0
    phi3_mask = _min_ternary_mask(g, census.ternary, budget)
    mid, mid_mask = _least_minimal_count(g, census.ternary, phi3_mask, budget)
    return phi3_mask, mid, mid_mask


# -- public operations -----------------------------------------------------------


def min_decycling(g: Graph, budget: "Budget | None" = None) -> tuple[int, tuple[int, ...]]:
    """Minimum number of vertex deletions leaving a forest, with a witness."""
    budget = ensure_budget(budget)
    size, witness = _phi_half(g, cycle_census(g, budget), budget)
    return size, _labeled(g, witness)


def min_ternary_decycling(g: Graph, budget: "Budget | None" = None) -> tuple[int, tuple[int, ...]]:
    """Minimum number of deletions leaving a ternary graph, with a witness."""
    budget = ensure_budget(budget)
    witness = _min_ternary_mask(g, cycle_census(g, budget).ternary, budget)
    return witness.bit_count(), _labeled(g, witness)


def minimal_ternary_decycling_sets(
    g: Graph,
    cap: "int | None" = None,
    budget: "Budget | None" = None,
) -> tuple[list[tuple[int, ...]], bool]:
    """All inclusion-minimal ternary decycling sets, up to ``cap``.

    Returns ``(sets, truncated)``; ``truncated`` is set only when more than
    ``cap`` sets exist, and a truncated list must not be used to claim global
    minima.  Every returned set is verified to meet each cycle of length
    divisible by 3.
    """
    budget = ensure_budget(budget)
    tern_masks = cycle_census(g, budget).ternary
    out, truncated = _minimal_transversal_masks(tern_masks, budget, cap=cap)
    for m in out:
        if any(not m & cm for cm in tern_masks):
            raise AssertionError("emitted set misses a cycle")
    return [_labeled(g, m) for m in out], truncated


def middle_bound(g: Graph, budget: "Budget | None" = None) -> tuple[int, tuple[int, ...]]:
    """Minimum independent-set count of G[D] over ternary decycling sets D.

    The minimum is attained at an inclusion-minimal D because every
    independent set of G[D] is one of G[D'] whenever D is contained in D'.
    Returns the count and a lexicographically-smallest attaining witness.
    """
    budget = ensure_budget(budget)
    _, best, best_mask = _ternary_half(g, cycle_census(g, budget), budget)
    return best, _labeled(g, best_mask)


def decycling_summary(
    g: Graph,
    budget: "Budget | None" = None,
    census: "CycleCensus | None" = None,
) -> DecyclingResult:
    """phi, phi3, nu and the middle bound from one chordless-cycle census.

    The census is taken under ``budget`` unless the caller passes one.
    """
    budget = ensure_budget(budget)
    if census is None:
        census = cycle_census(g, budget)
    phi, phi_mask = _phi_half(g, census, budget)
    phi3_mask, mid, mid_mask = _ternary_half(g, census, budget)
    return DecyclingResult(
        phi=phi,
        phi_witness=_labeled(g, phi_mask),
        phi3=phi3_mask.bit_count(),
        phi3_witness=_labeled(g, phi3_mask),
        nu=cyclomatic_number(g),
        middle_bound=mid,
        middle_witness=_labeled(g, mid_mask),
    )
