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

Minimum transversal (phi, phi3): two phases, the size and then the witness.

The size is found by iterative deepening on k, from a greedy packing of
vertex-disjoint cycles.  At each k a feasibility search asks whether k
vertices of an allowed set meet every cycle not yet hit.  It branches on the
unhit cycle with the fewest allowed vertices v1 < v2 < ...: take v1; else
drop v1 from the allowed set and take v2; and so on.  A node fails when some
unhit cycle has no allowed vertex, or when more unhit cycles stay pairwise
disjoint within the allowed set than there is room left, since each needs a
vertex of its own.  This is the bounded-search-tree rule for d-hitting set
(Cygan et al., *Parameterized Algorithms*, 2015, ch. 3); no order is owed
to the witness here, so it branches where the tree is narrowest.

The witness is found by self-reduction, with k now the minimum.  The
vertices on unhit cycles are decided in ascending order: v is included iff
the cycles v leaves unhit fit in one vertex less, drawn from the vertices
above v; otherwise some minimum completion avoids v, and v is excluded.  The
first vertex where two minimum sets differ decides their lexicographic
order, and including v puts v there where excluding it puts a larger vertex,
so the result is the lexicographically smallest minimum transversal.  A
vertex on no unhit cycle is skipped: a completion of the least size that
held it would still be one without it, one vertex smaller.

The self-reduction carries the last set a feasibility search found, starting
with the one that proved k feasible: at most k of its vertices lie above the
decided ones, and they meet every unhit mask.  When it holds the next vertex
v, v is included with no search: the carried set without v is a completion
of the rest in one vertex less, drawn from the vertices above v.  Otherwise
the search runs; a success replaces the carried set, and a failure keeps it,
since it does not hold v.  Each decision is the one the search would make,
and the searches run are a subset of those without the carried set.

Every node carries the cycles still unhit as a list in index order, filtered
when a vertex is taken, so the packing and the branch choice walk only
those.

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
found cannot lead to a better one.  The count is carried down the branch as
i(S + v) = i(S) + i(S - N(v)): the independent sets without v, and those
with it.  When v has no neighbour in S, S - N(v) is S and the second term is
the count already carried, so only a v with a neighbour in S costs a count.

The ternary masks first split into parts, the components of G[U] for U their
union, and each part is searched on its own:

  * every chordless cycle is connected, so its mask lies in one part;
  * a set is a minimal transversal iff it is a union of one minimal
    transversal per part, since a vertex hits only masks of its own part;
  * no edge joins two parts, so i(G[D]) is the product of the parts' counts,
    and the least product takes the least count in every part;
  * the first set in (count, size, vertex tuple) order is the union of each
    part's first set: at fixed sizes per part, the smallest vertex of the
    symmetric difference of two such unions decides their order, and it lies
    in one part.

Each part's bound starts at the count of the phi3 witness restricted to
it, the part's lexicographically smallest minimum transversal (a minimum
transversal of all masks is one per part, and the lexicographic argument
above applies).  While that seed is the best, a partial set whose count
reaches the seed's is cut: any other set with the same count comes later,
being larger, or of the same size and lexicographically later.  Once a
smaller count replaces the seed, only a count above the best is cut, so the
witness is still the first attaining set in (size, vertex tuple) order.

A part whose seed S induces a clique, with count |S| + 1, needs no search.
Every minimal transversal D of the part has |D| >= |S|, S being minimum, and
counts at least |D| + 1: the empty set and the singletons.  So none counts
less than S, and one that ties has size |S| and is a minimum transversal,
which comes after S, the lexicographically smallest of them.  Every part
whose seed is a single vertex takes this exit.

Witnesses are re-verified with the independent acyclicity/ternary
predicates, except an empty phi3 witness: re-checking G - {} = G would rerun
the census's own enumerator on the census's own graph.  The re-checks run on
vertex masks of G rather than on newly built subgraphs; vertex order is kept
either way, so the walk and its expansion count are the same.
"""

from __future__ import annotations

from typing import NamedTuple

from .budget import Budget, ensure_budget
from .cycles import CycleCensus, _is_ternary_mask, cycle_census
from .graph import Graph, bits, components_of, induces_forest
from .indpoly import _IntEngine


class DecyclingResult(NamedTuple):
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


def _incidence(masks: "tuple[int, ...]") -> list[int]:
    """``on[v]``: bitset of the indices of the masks that contain vertex v."""
    on = [0] * max((m.bit_length() for m in masks), default=0)
    for i, m in enumerate(masks):
        for v in bits(m):
            on[v] |= 1 << i
    return on


def _union(masks) -> int:
    """The vertices of all ``masks``."""
    union = 0
    for m in masks:
        union |= m
    return union


def _fewest(masks: "list[int]", allowed: int) -> int:
    """The mask both searches branch on: of the non-empty list ``masks``,
    the first with the fewest vertices in ``allowed``, cut to them."""
    branch = masks[0] & allowed
    size = branch.bit_count()
    for m in masks:
        m &= allowed
        if m.bit_count() < size:
            branch = m
            size = m.bit_count()
    return branch


def _min_transversal(masks: "tuple[int, ...]", budget: Budget) -> tuple[int, int]:
    """Smallest vertex set meeting every mask: (size, witness mask), the
    witness lexicographically smallest among minimum solutions."""
    if not masks:
        return 0, 0
    # Short cycles first: the greedy packing then tends to find more of them.
    masks = sorted(masks, key=int.bit_count)

    def packing(unhit: "list[int]", avail: int, room: int) -> int:
        """A greedy count of the ``unhit`` masks pairwise disjoint within
        ``avail``; ``room + 1`` once it passes ``room`` or a mask has no
        vertex in ``avail``."""
        used = count = 0
        for m in unhit:
            m &= avail
            if not m:
                return room + 1
            if not m & used:
                used |= m
                count += 1
                if count > room:
                    break
        return count

    def fits(unhit: "list[int]", avail: int, room: int) -> "int | None":
        """At most ``room`` vertices of ``avail`` meeting every mask of
        ``unhit``, as a mask, or None when there are none."""
        if not unhit:
            return 0
        budget.spend()
        if packing(unhit, avail, room) > room:
            return None
        for v in bits(_fewest(unhit, avail)):
            bit = 1 << v
            avail &= ~bit
            found = fits([m for m in unhit if not m & bit], avail, room - 1)
            if found is not None:
                return found | bit
        return None

    reach = _union(masks)
    k = packing(masks, reach, len(masks))
    while (held := fits(masks, reach, k)) is None:
        k += 1
    # Decide the vertices on unhit masks in ascending order, each included
    # iff the masks it leaves unhit still fit above it, with no search when
    # ``held`` holds it (the module docstring's carried set).
    chosen = 0
    while masks:
        bit = reach & -reach
        reach ^= bit
        rest = [m for m in masks if not m & bit]
        if not held & bit:
            found = fits(rest, reach, k - 1)
            if found is None:
                continue
            held = found
        chosen |= bit
        k -= 1
        masks = rest
        reach &= _union(rest)
    return chosen.bit_count(), chosen


def _mmcs(masks: "tuple[int, ...]", budget: Budget, grow, leaf) -> None:
    """Walk the inclusion-minimal transversals of ``masks`` by MMCS.

    ``grow(chosen, value, v, uncov)`` gives the value carried by
    ``chosen | 1 << v``, whose unhit masks are ``uncov``, or None to cut that
    branch; ``leaf(chosen, value)`` receives every minimal transversal the
    search reaches and returns True to stop it.  The root carries 1.
    """
    on = _incidence(masks)

    def search(chosen: int, value, cand: int, crit: list[int], uncov: int,
               unhit: "list[int]") -> bool:
        budget.spend()
        if not uncov:
            return leaf(chosen, value)
        branch = _fewest(unhit, cand)
        cand &= ~branch
        for v in bits(branch):
            hit = on[v]
            kept = [c & ~hit for c in crit]
            if all(kept):
                grown = grow(chosen, value, v, uncov & ~hit)
                if grown is not None:
                    kept.append(uncov & hit)
                    bit = 1 << v
                    if search(chosen | bit, grown, cand, kept, uncov & ~hit,
                              [m for m in unhit if not m & bit]):
                        return True
            cand |= 1 << v
        return False

    search(0, 1, _union(masks), [], (1 << len(masks)) - 1, list(masks))


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


def _least_part_count(engine: _IntEngine, masks: "list[int]", seed: int) -> tuple[int, int]:
    """Fewest independent sets of G[D] over the minimal transversals D of
    ``masks``, one part of the ternary masks, and the first D attaining it in
    (count, size, vertex tuple) order.

    MMCS carries i(S), the independent-set count of G[S], as
    i(S + v) = i(S) + i(S - N(v)), which is 2 i(S), with no count to take,
    when v has no neighbour in S.  Each vertex added raises i(S) by at least
    one (its own singleton), so every transversal below S counts at least
    i(S), and at least i(S) + 1 while some mask is still unhit.  The best
    starts at ``seed``, the part's lexicographically smallest minimum
    transversal, which is minimal.  Any other set with the seed's count
    comes after it, being larger or of the same size and lexicographically
    later, so while the seed is best a branch is cut once its bound reaches
    the seed's count.  Once a smaller count replaces the seed, a branch is
    cut only when its bound exceeds the best count, so every set attaining
    the minimum is reached and the tie-break sees them all.  A seed that
    induces a clique is returned at once (see the module docstring).
    """
    count = engine.eval_mask(seed)
    if count == seed.bit_count() + 1:
        return count, seed
    best = (count, seed.bit_count(), bits(seed), seed)
    # Cut a branch whose bound exceeds ``limit``: one below the seed's count
    # while the seed is best, the best count after.
    limit = best[0] - 1

    def grow(chosen: int, count: int, v: int, uncov: int) -> "int | None":
        rest = chosen & ~engine.adj[v]
        count += count if rest == chosen else engine.eval_mask(rest)
        return None if count + (uncov != 0) > limit else count

    def leaf(chosen: int, count: int) -> bool:
        nonlocal best, limit
        best = min(best, (count, chosen.bit_count(), bits(chosen), chosen))
        limit = best[0]
        return False

    _mmcs(masks, engine.budget, grow, leaf)
    return best[0], best[3]


def _least_minimal_count(
    g: Graph, masks: "tuple[int, ...]", seed: int, budget: Budget
) -> tuple[int, int]:
    """Fewest independent sets of G[D] over the minimal transversals D of
    ``masks``, and the first D attaining it in (count, size, vertex tuple)
    order.  ``seed`` is the lexicographically smallest minimum transversal.

    The masks split into parts, the components of G[U] for U the union of
    the masks, and :func:`_least_part_count` searches each part from
    ``seed`` restricted to it, which is that part's lexicographically
    smallest minimum transversal.  This is exact because:

      * each mask, a connected chordless cycle, lies inside one part;
      * the minimal transversals are the unions of one per part, as a vertex
        hits only masks of its own part;
      * no edge joins two parts, so the count of a union is the product of
        its parts' counts, least when each part's count is least;
      * the union of each part's first set is first overall, since the
        smallest vertex where two unions of equal part sizes differ lies in
        one part.

    Every part runs on one engine under ``budget``: its memo is keyed by
    component masks of g, which mean the same subgraph whichever set or
    part reached them.
    """
    engine = _IntEngine(g.adj, 1, budget)
    count, mask = 1, 0
    for part in components_of(g.adj, _union(masks)):
        part_count, part_mask = _least_part_count(
            engine, [m for m in masks if m & part], seed & part
        )
        count *= part_count
        mask |= part_mask
    # Cross-check the winner with a fresh engine, whose memo shares nothing
    # with the one that searched.
    if _IntEngine(g.adj, 1, budget).eval_mask(mask) != count:
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
    if not _is_ternary_mask(g.adj, g.all_mask & ~mask, budget):
        raise AssertionError("ternary decycling witness failed the ternary re-check")
    return mask


def _phi_half(g: Graph, census: CycleCensus, budget: Budget) -> tuple[int, int]:
    """phi and its witness mask, re-checked to leave a forest."""
    size, mask = _min_transversal(census.masks, budget)
    if not induces_forest(g.adj, g.all_mask & ~mask):
        raise AssertionError("decycling witness failed the acyclicity re-check")
    return size, mask


def _ternary_half(g: Graph, census: CycleCensus, budget: Budget) -> tuple[int, int, int]:
    """The phi3 witness mask, the middle bound and the middle witness mask.

    The middle bound is searched from the phi3 witness, which is minimum,
    hence minimal, hence one of the candidates.  With no ternary cycle that
    is ``(0, 1, 0)``, at no expansion.
    """
    phi3_mask = _min_ternary_mask(g, census.ternary, budget)
    mid, mid_mask = _least_minimal_count(g, census.ternary, phi3_mask, budget)
    return phi3_mask, mid, mid_mask


# -- public operations -----------------------------------------------------------


def min_decycling(g: Graph, budget: "Budget | None" = None) -> tuple[int, tuple[int, ...]]:
    """Minimum number of vertex deletions leaving a forest, with a witness."""
    budget = ensure_budget(budget)
    size, witness = _phi_half(g, cycle_census(g, budget), budget)
    return size, bits(witness)


def min_ternary_decycling(g: Graph, budget: "Budget | None" = None) -> tuple[int, tuple[int, ...]]:
    """Minimum number of deletions leaving a ternary graph, with a witness."""
    budget = ensure_budget(budget)
    witness = _min_ternary_mask(g, cycle_census(g, budget).ternary, budget)
    return witness.bit_count(), bits(witness)


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
    return [bits(m) for m in out], truncated


def middle_bound(g: Graph, budget: "Budget | None" = None) -> tuple[int, tuple[int, ...]]:
    """Minimum independent-set count of G[D] over ternary decycling sets D.

    The minimum is attained at an inclusion-minimal D because every
    independent set of G[D] is one of G[D'] whenever D is contained in D'.
    Returns the count and the attaining witness first in (size, vertex
    tuple) order.
    """
    budget = ensure_budget(budget)
    _, best, best_mask = _ternary_half(g, cycle_census(g, budget), budget)
    return best, bits(best_mask)


def decycling_summary(g: Graph, budget: "Budget | None" = None) -> DecyclingResult:
    """phi, phi3, nu and the middle bound from one chordless-cycle census,
    all under ``budget``."""
    budget = ensure_budget(budget)
    census = cycle_census(g, budget)
    phi, phi_mask = _phi_half(g, census, budget)
    phi3_mask, mid, mid_mask = _ternary_half(g, census, budget)
    return DecyclingResult(
        phi=phi,
        phi_witness=bits(phi_mask),
        phi3=phi3_mask.bit_count(),
        phi3_witness=bits(phi3_mask),
        nu=cyclomatic_number(g),
        middle_bound=mid,
        middle_witness=bits(mid_mask),
    )
