import random

import pytest
from hypothesis import given, settings

from altind import (
    Budget,
    BudgetExceededError,
    Graph,
    alternating_number,
    attach_pendant_path,
    chordless_cycles,
    complete_graph,
    cycle_graph,
    cyclomatic_number,
    doubler_chain,
    decycling_summary,
    disjoint_union,
    empty_graph,
    enumerate_labeled_graphs,
    independent_set_count,
    is_ternary,
    middle_bound,
    min_decycling,
    min_ternary_decycling,
    minimal_ternary_decycling_sets,
    parse_graph6,
    path_graph,
    to_graph6,
)
from altind.cycles import cycle_census
from altind.decycling import _min_transversal, _phi_half, _ternary_half
from altind.graph import induces_forest, mask_of

from conftest import (
    berge_minimal_transversals,
    brute_middle_bound,
    brute_min_decycling,
    brute_min_ternary_decycling,
    brute_minimal_ternary_decycling_sets,
    combinations_min_transversal,
    graphs,
    include_first_min_transversal,
    induced,
    milp_min_transversal,
    random_graph,
    random_k_tree,
    random_subdivided,
    relabeled,
    slow_middle_bound,
    subdivided_complete,
    without,
)

TWO_TRIANGLES_BRIDGED = Graph.from_edges(
    6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
)
TWO_TRIANGLES_THROUGH_A_VERTEX = Graph.from_edges(
    7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 6), (6, 3)]
)


def test_cyclomatic_examples():
    assert cyclomatic_number(path_graph(5)) == 0
    assert cyclomatic_number(cycle_graph(3)) == 1
    assert cyclomatic_number(complete_graph(4)) == 3
    assert cyclomatic_number(disjoint_union(cycle_graph(3), cycle_graph(4))) == 2


def test_min_decycling_examples():
    assert min_decycling(path_graph(6)) == (0, ())
    size, witness = min_decycling(cycle_graph(6))
    assert size == 1 and witness == (0,)
    size, witness = min_decycling(complete_graph(4))
    assert size == 2 and witness == (0, 1)


def test_min_ternary_decycling_examples():
    assert min_ternary_decycling(cycle_graph(4)) == (0, ())
    size, witness = min_ternary_decycling(cycle_graph(6))
    assert size == 1 and witness == (0,)
    size, _ = min_ternary_decycling(TWO_TRIANGLES_BRIDGED)
    assert size == 2


def test_minimal_sets_examples():
    sets, truncated = minimal_ternary_decycling_sets(cycle_graph(3))
    assert sets == [(0,), (1,), (2,)] and not truncated
    sets, truncated = minimal_ternary_decycling_sets(cycle_graph(4))
    assert sets == [()] and not truncated
    sets, truncated = minimal_ternary_decycling_sets(cycle_graph(6))
    assert sets == [(v,) for v in range(6)] and not truncated


def test_minimal_sets_cap():
    sets, truncated = minimal_ternary_decycling_sets(cycle_graph(6), cap=2)
    assert truncated and len(sets) == 2


def test_middle_bound_examples():
    assert middle_bound(cycle_graph(4)) == (1, ())
    assert middle_bound(cycle_graph(3)) == (2, (0,))
    assert middle_bound(disjoint_union(cycle_graph(3), cycle_graph(3))) == (4, (0, 3))
    assert middle_bound(TWO_TRIANGLES_BRIDGED) == (3, (2, 3))
    assert middle_bound(TWO_TRIANGLES_THROUGH_A_VERTEX) == (4, (0, 3))


def test_empty_graph_summary():
    res = decycling_summary(empty_graph(0))
    assert (res.phi, res.phi3, res.nu) == (0, 0, 0)
    assert res.middle_bound == 1 and res.middle_witness == ()


def test_brute_equivalence_exhaustive_small():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            phi3 = brute_min_ternary_decycling(g)
            assert min_decycling(g) == brute_min_decycling(g)
            assert min_ternary_decycling(g) == phi3
            res = decycling_summary(g)
            assert (res.phi3, res.phi3_witness) == phi3


def test_brute_equivalence_random_n7():
    rng = random.Random(4242)
    for _ in range(60):
        g = random_graph(rng, 7)
        phi3 = brute_min_ternary_decycling(g)
        middle = brute_middle_bound(g)
        assert min_decycling(g) == brute_min_decycling(g)
        assert min_ternary_decycling(g) == phi3
        assert middle_bound(g) == middle
        res = decycling_summary(g)
        assert (res.phi3, res.phi3_witness) == phi3
        assert (res.middle_bound, res.middle_witness) == middle


SEVEN_TRIANGLES = Graph.from_edges(
    21, [e for t in range(0, 21, 3) for e in ((t, t + 1), (t, t + 2), (t + 1, t + 2))]
)


def test_seven_disjoint_triangles_closed_forms():
    # u = 21 vertices on cycles: one vertex per triangle, 3^7 ways.
    first = tuple(range(0, 21, 3))
    assert min_decycling(SEVEN_TRIANGLES) == (7, first)
    assert min_ternary_decycling(SEVEN_TRIANGLES) == (7, first)
    sets, truncated = minimal_ternary_decycling_sets(SEVEN_TRIANGLES)
    assert not truncated and len(sets) == 3 ** 7 and sets[0] == first
    res = decycling_summary(SEVEN_TRIANGLES)
    assert (res.phi3, res.phi3_witness) == (7, first)
    assert (res.middle_bound, res.middle_witness) == (2 ** 7, first)


def test_truncated_only_past_the_cap():
    sets, truncated = minimal_ternary_decycling_sets(SEVEN_TRIANGLES, cap=3 ** 7)
    assert not truncated and len(sets) == 3 ** 7
    sets, truncated = minimal_ternary_decycling_sets(SEVEN_TRIANGLES, cap=3 ** 7 - 1)
    assert truncated and len(sets) == 3 ** 7 - 1
    sets, truncated = minimal_ternary_decycling_sets(cycle_graph(6), cap=6)
    assert not truncated and sets == [(v,) for v in range(6)]


def test_large_universe_matches_subset_oracles():
    g = random_graph(random.Random(1), 20, 0.25)
    cycles = chordless_cycles(g).chordless_cycles
    tern = [c for c in cycles if len(c) % 3 == 0]
    assert len(set().union(*tern)) > 18
    assert min_decycling(g) == combinations_min_transversal(cycles)
    assert min_ternary_decycling(g) == combinations_min_transversal(tern)
    sets, truncated = minimal_ternary_decycling_sets(g)
    assert not truncated
    assert {frozenset(s) for s in sets} == berge_minimal_transversals(tern)
    assert sets == sorted(sets, key=lambda s: (len(s), s))


def _transversal_cases():
    rng = random.Random(2024)
    for n in range(8, 15):
        for p in (0.25, 0.35):
            yield random_graph(rng, n, p)
    for _ in range(30):
        g = random_subdivided(rng)
        yield g
        yield relabeled(g, rng)


def test_phi_keeps_the_least_minimum_transversal():
    # A bound that overstates what a branch needs prunes a branch holding a
    # minimum transversal, and shows up here as a larger size or a later
    # witness.
    for g in _transversal_cases():
        cycles = chordless_cycles(g).chordless_cycles
        assert min_decycling(g) == combinations_min_transversal(cycles)


def test_two_phase_search_matches_the_include_first_search():
    draws = random.Random(1)
    corpus = [*enumerate_labeled_graphs(6), *(random_graph(draws, 30, 0.15) for _ in range(3))]
    for g in corpus:
        census = cycle_census(g, Budget(10**9))
        for masks in (census.masks, census.ternary):
            expected = include_first_min_transversal(masks)
            assert _min_transversal(masks, Budget(10**9)) == expected, to_graph6(g)


def test_phi_and_phi3_match_integer_programming():
    # An integer program with self-reduction is independent of both the
    # search and its carried witness, at sizes the subset oracles cannot
    # reach.
    pytest.importorskip("scipy")
    rng = random.Random(3)
    family = [random_graph(rng, 30, 0.15) for _ in range(2)]
    family += [random_k_tree(rng, 2, 30), random_k_tree(rng, 3, 30)]
    for g in family:
        census = cycle_census(g)
        assert min_decycling(g) == milp_min_transversal(census.masks, g.n), to_graph6(g)
        assert min_ternary_decycling(g) == milp_min_transversal(census.ternary, g.n), to_graph6(g)


def test_disjoint_unions_add_and_multiply():
    # On G + H, with H's labels above G's, a minimum or middle-bound set is
    # one per side, and every vertex of G comes before every vertex of H: phi
    # and phi3 add, I(G;-1) and the middle bound multiply, and each witness
    # is the union of the sides' witnesses.  The middle search then splits
    # into parts at sizes the brute-force oracles cannot reach.
    rng = random.Random(4)
    for (n1, p1), (n2, p2) in (((20, 0.2), (24, 0.15)), ((30, 0.12), (22, 0.18)),
                               ((26, 0.15), (28, 0.13)), ((25, 0.18), (20, 0.22))):
        g, h = random_graph(rng, n1, p1), random_graph(rng, n2, p2)
        union = disjoint_union(g, h)
        sides = decycling_summary(g), decycling_summary(h)
        res = decycling_summary(union)

        def united(field):
            return getattr(sides[0], field) + tuple(v + g.n for v in getattr(sides[1], field))

        assert res.phi == sides[0].phi + sides[1].phi
        assert res.phi_witness == united("phi_witness")
        assert res.phi3 == sides[0].phi3 + sides[1].phi3
        assert res.phi3_witness == united("phi3_witness")
        assert res.middle_bound == sides[0].middle_bound * sides[1].middle_bound
        assert res.middle_witness == united("middle_witness")
        alternating = alternating_number(union)
        assert alternating == alternating_number(g) * alternating_number(h)

        copy = relabeled(union, rng)
        moved = decycling_summary(copy)
        assert (moved.phi, moved.phi3, moved.nu, moved.middle_bound) == (
            res.phi, res.phi3, res.nu, res.middle_bound
        )
        assert alternating_number(copy) == alternating


@pytest.mark.parametrize("n, phi, expansions", [(4, 2, 6), (5, 3, 16), (6, 4, 27)])
def test_complete_graph_phi_expansions(n, phi, expansions):
    # The packing bound is 1, 1 and 2 here, so the size search fails at 1,
    # 2 and 2 depths before it fits.  The set that fits is {0, ..., phi - 1},
    # which holds every vertex the witness walk decides, so that walk
    # includes each with no search and spends nothing.
    g = complete_graph(n)
    budget = Budget(10**6)
    assert _min_transversal(cycle_census(g, Budget(10**6)).masks, budget) == (
        phi,
        (1 << phi) - 1,
    )
    assert budget.used == expansions


def test_phi_search_on_a_g34_draw_within_budget():
    # G(34, .12), 64 edges and 1,781 chordless cycles; the search takes
    # 3,823 expansions.
    g = parse_graph6(
        "a?g????A??C????GO?C?P??g?KC?B?_G???bT?A@W???b???@?@GA?G??????KAAB?@?BG?"
        "_??_AGO?AcO??OaA?????hA_"
    )
    census = cycle_census(g, Budget(10**6))
    assert len(census.masks) == 1781
    assert _phi_half(g, census, Budget(5_000)) == (
        9,
        mask_of((4, 5, 10, 11, 12, 14, 18, 19, 30)),
    )


MIDDLE_CASES = {
    "gnp20": random_graph(random.Random(1), 20, 0.25),
    "k7-sub1": subdivided_complete(7, 1),
    "k5-sub2": subdivided_complete(5, 2),
    "k5-sub2-relabeled": relabeled(subdivided_complete(5, 2), random.Random(5)),
    "doubler6": doubler_chain(6)[0],
    # The ternary masks split into parts, the components of G[U] for U their
    # union; the edge-joined triangles are one part, since the edge (2, 3)
    # makes the count of {2, 3} 3, not 2 * 2.
    "triangles-edge": TWO_TRIANGLES_BRIDGED,
    "triangles-path": TWO_TRIANGLES_THROUGH_A_VERTEX,
    "k4-c6-relabeled": relabeled(disjoint_union(complete_graph(4), cycle_graph(6)), random.Random(3)),
    "doubler3-relabeled": relabeled(doubler_chain(3)[0], random.Random(3)),
    # A count below the seed's is found at {0, 6}, then tied by the earlier
    # {0, 3}: once the seed is replaced, ties are no longer cut.
    "tie-after-seed": parse_graph6("Ffol_"),
    # The seed induces a clique, so each part returns it with no search.
    "k5": complete_graph(5),
    "k4-pendant-path": attach_pendant_path(complete_graph(4), 0, 3),
    "triangles-disjoint": disjoint_union(cycle_graph(3), cycle_graph(3)),
}


@pytest.mark.parametrize("name", MIDDLE_CASES)
def test_pruned_middle_search_matches_full_enumeration(name):
    g = MIDDLE_CASES[name]
    expected = slow_middle_bound(g)
    assert middle_bound(g) == expected
    res = decycling_summary(g)
    assert (res.middle_bound, res.middle_witness) == expected


def test_a_clique_seed_ends_the_middle_search():
    # K4's phi3 witness {0, 1} counts 3 = |S| + 1, the least any minimal
    # transversal can count, so no MMCS node is charged: 8 expansions, 6 for
    # the phi3 search and 2 for the two counts of the witness.  The re-check
    # walks the edge {2, 3}, whose start has no closer, for free.
    g = complete_graph(4)
    budget = Budget(10**6)
    assert _ternary_half(g, cycle_census(g, Budget(10**6)), budget) == (0b11, 3, 0b11)
    assert budget.used == 8


def test_doubler_chain_middle_search_is_linear():
    # All 3^9 minimal sets count 2^9.  Each of the nine parts is solved on
    # its own, and ties with the phi3 seed are cut: 273 expansions, against
    # 29,804 for one search that visits every tie.
    assert middle_bound(doubler_chain(9)[0], Budget(1_000)) == (
        512,
        (0, 4, 11, 18, 25, 32, 39, 46, 53),
    )


def test_k6_twice_subdivided_within_budget():
    # Enumerating and counting every minimal ternary decycling set takes
    # 3.24M expansions here; the count bound cuts nearly all of them.
    res = decycling_summary(subdivided_complete(6, 2), Budget(50_000))
    assert res.phi3 == 4
    assert (res.middle_bound, res.middle_witness) == (16, (0, 1, 2, 3))


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_minimal_sets_match_brute(g):
    sets, truncated = minimal_ternary_decycling_sets(g)
    assert not truncated
    assert {frozenset(s) for s in sets} == brute_minimal_ternary_decycling_sets(g)


@given(graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_ternary_graphs_have_unit_middle_bound(g):
    if is_ternary(g):
        assert min_ternary_decycling(g) == (0, ())
        assert middle_bound(g) == (1, ())


@given(graphs(max_n=9))
@settings(max_examples=100, deadline=None)
def test_invariant_chain(g):
    res = decycling_summary(g)
    assert res.phi3 <= res.phi <= res.nu
    assert 1 <= res.middle_bound <= 1 << res.phi3
    assert induces_forest(g.adj, g.all_mask & ~mask_of(res.phi_witness))
    assert is_ternary(without(g, res.phi3_witness))
    assert len(res.phi_witness) == res.phi
    assert len(res.phi3_witness) == res.phi3


def test_monotonicity_on_nested_sets():
    rng = random.Random(99)
    checked = 0
    while checked < 120:
        g = random_graph(rng, rng.randrange(3, 9))
        sets, _ = minimal_ternary_decycling_sets(g)
        base = list(rng.choice(sets))
        extra = [v for v in range(g.n) if v not in base and rng.random() < 0.4]
        if not extra:
            continue
        small = independent_set_count(induced(g, base))
        large = independent_set_count(induced(g, base + extra))
        assert small <= large
        checked += 1


def test_witnesses_are_lexicographically_smallest():
    # Both endpoints of every optimum tie resolve toward lower indices.
    size, witness = min_decycling(cycle_graph(5))
    assert (size, witness) == (1, (0,))
    res = decycling_summary(disjoint_union(cycle_graph(3), cycle_graph(3)))
    assert res.phi3_witness == (0, 3)
    assert res.middle_witness == (0, 3)


def test_budget_exhaustion_is_an_error():
    with pytest.raises(BudgetExceededError):
        decycling_summary(complete_graph(12), Budget(5))


def test_middle_bound_matches_verified_count():
    g = TWO_TRIANGLES_BRIDGED
    value, witness = middle_bound(g)
    assert value == independent_set_count(induced(g, witness))
    assert is_ternary(without(g, witness))


def test_ternary_half_without_a_ternary_cycle_spends_nothing():
    g = cycle_graph(4)
    census = cycle_census(g, Budget())
    assert census.masks and not census.ternary
    budget = Budget(1)
    assert _ternary_half(g, census, budget) == (0, 1, 0)
    assert budget.used == 0
