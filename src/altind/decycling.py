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

Minimal transversals (middle bound): MMCS (Murakami and Uno, "Efficient
algorithms for dualizing large-scale hypergraphs", DAM 2014).  It grows a set
one vertex at a time, keeps for every chosen vertex the bitset of cycles that
only it hits (``crit``) and the bitset of cycles nothing hits yet
(``uncov``), branches on the vertices of one unhit cycle, and abandons a
branch as soon as some chosen vertex loses its last private cycle.  Every
emitted set is therefore minimal, and each minimal set is emitted once.

Every minimum transversal is minimal, so the list of minimal ternary
transversals sorted by (size, vertex tuple) starts with the
lexicographically smallest minimum one: phi3 and its witness are its head.
Witnesses are re-verified with the independent acyclicity/ternary
predicates.
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


def _minimal_transversal_masks(
    masks: "tuple[int, ...]",
    budget: Budget,
    cap: "int | None" = None,
) -> tuple[list[int], bool]:
    """All inclusion-minimal transversals, sorted by (size, vertex tuple).

    With a ``cap``, the search stops once it has found ``cap + 1`` sets and
    reports ``truncated``; the smallest ``cap`` of the sets found are kept.
    """
    on = _incidence(masks)
    found: list[int] = []

    def mmcs(chosen: int, cand: int, crit: dict[int, int], uncov: int) -> bool:
        """Extend ``chosen`` by vertices of ``cand``; True once the cap is passed."""
        budget.spend()
        if not uncov:
            found.append(chosen)
            return cap is not None and len(found) > cap
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
                kept[v] = uncov & hit
                if mmcs(chosen | 1 << v, cand, kept, uncov & ~hit):
                    return True
            cand |= 1 << v
        return False

    universe = 0
    for m in masks:
        universe |= m
    truncated = mmcs(0, universe, {}, (1 << len(masks)) - 1)
    found.sort(key=lambda m: (m.bit_count(), bits(m)))
    return (found[:cap] if truncated else found), truncated


def _least_count(g: Graph, candidates: list[int], budget: Budget) -> tuple[int, int]:
    """Fewest independent sets of G[D] over the candidate masks D, and the
    first D attaining it.

    One engine serves every candidate: its memo is keyed by component masks
    of g, which mean the same subgraph whichever candidate reached them.
    """
    engine = _IntEngine(g.adj, 1, budget)
    best = None
    best_mask = 0
    for m in candidates:
        budget.spend()
        count = engine.eval_mask(m)
        if best is None or count < best:
            best, best_mask = count, m
    # Cross-check the winner on the relabeled induced subgraph.
    if independent_set_count(g.induced_subgraph(best_mask), budget=budget) != best:
        raise AssertionError("independent-set count mismatch on the middle witness")
    return best, best_mask


def _check_ternary(g: Graph, mask: int, budget: Budget) -> None:
    """Re-check a ternary decycling witness with the independent predicate."""
    if not is_ternary(g.delete_vertices(mask), budget=budget):
        raise AssertionError("ternary decycling witness failed the ternary re-check")


def _phi_half(g: Graph, census: CycleCensus, budget: Budget) -> tuple[int, int]:
    """phi and its witness mask, re-checked to leave a forest."""
    size, mask = _min_transversal(census.masks, budget)
    if not g.delete_vertices(mask).is_acyclic():
        raise AssertionError("decycling witness failed the acyclicity re-check")
    return size, mask


def _ternary_half(g: Graph, census: CycleCensus, budget: Budget) -> tuple[int, int, int]:
    """The phi3 witness mask, the middle bound and the middle witness mask.

    The witness is the head of the sorted minimal ternary decycling sets,
    re-checked to leave a ternary graph; the middle bound is the least count
    over those same sets.
    """
    candidates, _ = _minimal_transversal_masks(census.ternary, budget)
    _check_ternary(g, candidates[0], budget)
    mid, mid_mask = _least_count(g, candidates, budget)
    return candidates[0], mid, mid_mask


# -- public operations -----------------------------------------------------------


def min_decycling(g: Graph, budget: "Budget | None" = None) -> tuple[int, tuple[int, ...]]:
    """Minimum number of vertex deletions leaving a forest, with a witness."""
    budget = ensure_budget(budget)
    size, witness = _phi_half(g, cycle_census(g, budget), budget)
    return size, _labeled(g, witness)


def min_ternary_decycling(g: Graph, budget: "Budget | None" = None) -> tuple[int, tuple[int, ...]]:
    """Minimum number of deletions leaving a ternary graph, with a witness."""
    budget = ensure_budget(budget)
    size, witness = _min_transversal(cycle_census(g, budget).ternary, budget)
    _check_ternary(g, witness, budget)
    return size, _labeled(g, witness)


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
    candidates, _ = _minimal_transversal_masks(cycle_census(g, budget).ternary, budget)
    best, best_mask = _least_count(g, candidates, budget)
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
