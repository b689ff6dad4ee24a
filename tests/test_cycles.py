import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altind import (
    Budget,
    BudgetExceededError,
    Graph,
    chordless_cycles,
    complete_graph,
    cycle_graph,
    doubler_chain,
    empty_graph,
    enumerate_labeled_graphs,
    has_cycle_length_not_div3,
    is_ternary,
    parse_graph6,
    mask_of,
    path_graph,
    verify_graph,
)
from altind.cycles import (
    _chordless_iter,
    _cycle_length_not_div3,
    _cycle_order,
    _is_ternary_mask,
    cycle_census,
)
from altind.graph import induces_forest

from conftest import (
    brute_chordless_sets,
    brute_has_cycle_not_div3,
    brute_is_ternary,
    graphs,
    random_graph,
    random_k_tree,
    random_subdivided,
    recursive_chordless_walk,
    relabeled,
    subdivided_complete,
    theta_graph,
    theta_ring,
    walk_has_cycle_not_div3,
    without,
)


def test_c6_census():
    report = chordless_cycles(cycle_graph(6))
    assert report.chordless_cycles == ((0, 1, 2, 3, 4, 5),)
    assert report.has_induced_3tilde
    assert report.has_cycle_len_not_div3 is False


def test_k4_census_is_all_triangles():
    report = chordless_cycles(complete_graph(4))
    assert len(report.chordless_cycles) == 4
    assert all(len(c) == 3 for c in report.chordless_cycles)
    assert {frozenset(c) for c in report.chordless_cycles} == brute_chordless_sets(
        complete_graph(4)
    )


def test_trees_have_no_cycles():
    assert chordless_cycles(path_graph(7)).chordless_cycles == ()
    assert chordless_cycles(empty_graph(4)).chordless_cycles == ()


def test_canonical_orientation():
    # Smallest vertex first, then toward the smaller neighbor.
    (cycle,) = chordless_cycles(cycle_graph(5)).chordless_cycles
    assert cycle[0] == 0
    assert cycle[1] < cycle[-1]


@given(graphs(max_n=8))
@settings(max_examples=120, deadline=None)
def test_census_matches_subset_oracle(g):
    report = chordless_cycles(g)
    listed = [frozenset(c) for c in report.chordless_cycles]
    assert len(listed) == len(set(listed)), "duplicate cycles emitted"
    assert set(listed) == brute_chordless_sets(g)
    assert report.has_induced_3tilde == any(len(s) % 3 == 0 for s in listed)


def test_census_matches_subset_oracle_exhaustively_to_n5():
    from altind import enumerate_labeled_graphs

    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            listed = {frozenset(c) for c in chordless_cycles(g).chordless_cycles}
            assert listed == brute_chordless_sets(g)


def test_census_matches_networkx_at_mid_sizes():
    # networkx's chordless_cycles (Dias et al.'s starting-triplet search) is
    # an independent enumerator, at sizes the subset oracle cannot reach.
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)
    family = [
        random_graph(rng, n, p)
        for n, p in ((20, 0.25), (25, 0.18), (30, 0.14), (35, 0.11), (40, 0.09), (40, 0.1))
    ]
    family += [random_k_tree(rng, 2, 30), random_k_tree(rng, 3, 30)]
    family += [subdivided_complete(5, 1), subdivided_complete(5, 2), theta_ring(5, 3)]
    for g in family:
        for h in (g, relabeled(g, rng)):
            reference = nx.Graph(h.edges())
            reference.add_nodes_from(range(h.n))
            expected = [mask_of(c) for c in nx.chordless_cycles(reference) if len(c) >= 3]
            assert sorted(cycle_census(h).masks) == sorted(expected)


def test_is_ternary_examples():
    assert is_ternary(cycle_graph(4))
    assert not is_ternary(cycle_graph(3))
    assert not is_ternary(cycle_graph(6))
    assert not is_ternary(complete_graph(4))
    assert is_ternary(empty_graph(2))
    assert is_ternary(path_graph(9))


@given(graphs(max_n=8))
@settings(max_examples=120, deadline=None)
def test_is_ternary_matches_oracle(g):
    assert is_ternary(g) == brute_is_ternary(g)


@given(graphs(max_n=8), st.data())
@settings(max_examples=80, deadline=None)
def test_ternary_is_hereditary(g, data):
    if not is_ternary(g) or g.n == 0:
        return
    drop = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    assert is_ternary(without(g, drop))


def test_has_cycle_length_not_div3_examples():
    assert not has_cycle_length_not_div3(cycle_graph(6))
    assert has_cycle_length_not_div3(cycle_graph(4))
    assert has_cycle_length_not_div3(complete_graph(4))
    assert not has_cycle_length_not_div3(path_graph(6))


def test_threads_of_a_block_need_not_have_length_divisible_by_3():
    # Two 6-cycles 0..5 and 6..11 joined by the edge 3-6, plus the path
    # 0-12-9 between their far vertices.  The block is 2-connected and every
    # cycle has length 6 or 9, yet the threads 3-6 and 0-12-9 have lengths
    # 1 and 2: threads in series constrain only their sum mod 3.
    g = parse_graph6("LhEG_C@?G?_P_C")
    assert all(without(g, [v]).is_connected() for v in range(g.n))
    assert not has_cycle_length_not_div3(g)
    assert verify_graph(g).checks["cyclomatic_bound"].applicable is False


@given(graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_simple_cycle_predicate_matches_permutation_oracle(g):
    assert has_cycle_length_not_div3(g) == brute_has_cycle_not_div3(g)
    assert walk_has_cycle_not_div3(g) == brute_has_cycle_not_div3(g)


def _assert_hypothesis_matches_walk(g):
    """The predicate, the census flag and verify_graph's applicability of
    cyclomatic_bound all equal the simple-cycle walk."""
    expected = walk_has_cycle_not_div3(g)
    assert has_cycle_length_not_div3(g) is expected
    assert chordless_cycles(g).has_cycle_len_not_div3 is expected
    assert verify_graph(g).checks["cyclomatic_bound"].applicable is expected


def test_hypothesis_matches_walk_exhaustively_to_n5():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            _assert_hypothesis_matches_walk(g)


@given(graphs(max_n=12))
@settings(max_examples=150, deadline=None)
def test_hypothesis_matches_walk_on_random_graphs(g):
    _assert_hypothesis_matches_walk(g)


def test_hypothesis_matches_walk_on_subdivided_graphs():
    # Long threads between branch vertices give chordless cycles of every
    # residue, and only the edges left unsubdivided can be chords.
    rng = random.Random(2024)
    for _ in range(150):
        g = random_subdivided(rng)
        _assert_hypothesis_matches_walk(g)
        _assert_hypothesis_matches_walk(relabeled(g, rng))


def test_hypothesis_matches_walk_on_k_trees():
    # Chordal, so every chordless cycle is a triangle, and the component
    # rule alone decides whether some cycle has a chord.
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randrange(1, 5)
        g = random_k_tree(rng, k, rng.randrange(k + 1, 11))
        _assert_hypothesis_matches_walk(g)
        _assert_hypothesis_matches_walk(relabeled(g, rng))


@pytest.mark.parametrize(
    "g, spent",
    [
        pytest.param(complete_graph(4), 1, id="K4"),
        pytest.param(subdivided_complete(7, 2), 0, id="subdivided-k7"),
        pytest.param(Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)]), 0,
                     id="forest"),
    ],
)
def test_hypothesis_charge(g, spent):
    # One expansion per census cycle with an edge between two vertices of
    # degree >= 3: K4's first triangle settles it, and no edge of the
    # subdivided K7 joins two branch vertices, its only ones of degree >= 3.
    budget = Budget()
    _cycle_length_not_div3(g, cycle_census(g), budget)
    assert budget.used == spent


@pytest.mark.parametrize(
    "g",
    [pytest.param(doubler_chain(k)[0], id=f"doubler{k}") for k in range(1, 7)]
    + [
        pytest.param(parse_graph6("Cz"), id="diamond"),
        pytest.param(theta_graph(3, 3, 3), id="theta333"),
        pytest.param(parse_graph6("LhEG_C@?G?_P_C"), id="hexagons-in-series"),
        # Every chordless cycle is ternary (9, 12 or 15 in the first, 6 or 12
        # in the ring's 20) and no cycle has a chord.
        pytest.param(subdivided_complete(5, 2), id="subdivided-k5"),
        pytest.param(theta_ring(4, 3), id="theta-ring"),
    ],
)
def test_hypothesis_matches_walk_on_named_graphs(g):
    _assert_hypothesis_matches_walk(g)
    _assert_hypothesis_matches_walk(relabeled(g, random.Random(g.n)))


def test_hypothesis_does_not_walk_simple_cycles():
    # The census takes 585 expansions and settles it (a chordless cycle of
    # length not divisible by 3); walking the simple cycles took 126,513.
    g = parse_graph6("Q??@?O@?`[Z??E?s@_?HHDJ[cCo")
    assert has_cycle_length_not_div3(g, Budget(2_000))


@given(graphs(max_n=8))
@settings(max_examples=100, deadline=None)
def test_acyclic_graphs_are_ternary_and_cycle_free(g):
    if induces_forest(g.adj, g.all_mask):
        assert is_ternary(g)
        assert not has_cycle_length_not_div3(g)


def test_budget_exhaustion_is_an_error():
    # Complete bipartite: ternary, so the census cannot exit early.
    k44 = Graph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    with pytest.raises(BudgetExceededError):
        is_ternary(k44, Budget(3))
    # Disjoint triangles: the predicate reads the whole census, 12
    # expansions, before the component rule (which examines no cycle here:
    # no vertex has degree 3).
    triangles = Graph.from_edges(
        12, [(3 * i + a, 3 * i + b) for i in range(4) for a, b in ((0, 1), (0, 2), (1, 2))]
    )
    with pytest.raises(BudgetExceededError):
        has_cycle_length_not_div3(triangles, Budget(3))


# -- the explicit-stack walk against the recursive reference -------------------


def _assert_walk_matches_recursion(g, alive):
    """The walk over ``alive`` and its three readers give the recursive
    walk's cycles, in its order, for at most its expansion count: the walk
    skips a path once every cycle it could close would have a chord.
    Returns the walk's and the recursion's counts over all of ``alive``."""
    adj = g.adj
    expected_budget = Budget()
    expected = list(recursive_chordless_walk(adj, alive, expected_budget))
    budget = Budget()
    walked = list(_chordless_iter(adj, alive, budget))
    assert walked == [(mask_of(c), len(c)) for c in expected]
    assert [_cycle_order(adj, m) for m, _ in walked] == expected
    assert budget.used <= expected_budget.used
    spent = budget.used

    first_budget = Budget()
    ternary = True
    for cycle in recursive_chordless_walk(adj, alive, first_budget):
        if len(cycle) % 3 == 0:
            ternary = False
            break
    budget = Budget()
    assert _is_ternary_mask(adj, alive, budget) is ternary
    assert budget.used <= first_budget.used

    if alive == g.all_mask:
        budget = Budget()
        census = cycle_census(g, budget)
        assert census.masks == tuple(mask_of(c) for c in expected)
        assert census.ternary == tuple(mask_of(c) for c in expected if len(c) % 3 == 0)
        assert budget.used == spent

        hypothesis_budget = Budget()
        _cycle_length_not_div3(g, census, hypothesis_budget)
        budget = Budget()
        report = chordless_cycles(g, budget)
        assert report.chordless_cycles == tuple(tuple(c) for c in expected)
        assert budget.used == spent + hypothesis_budget.used
    return spent, expected_budget.used


def _random_alive(g, rng):
    """The vertex mask of G - S for a random nonempty S."""
    return g.all_mask & ~(rng.getrandbits(g.n) | 1 << rng.randrange(g.n))


def test_walk_matches_recursion_exhaustively_to_n6():
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            _assert_walk_matches_recursion(g, g.all_mask)


def test_walk_matches_recursion_on_random_graphs_and_deletions():
    rng = random.Random(9)
    for n in range(7, 23):
        for p in (0.15, 0.3, 0.5):
            g = random_graph(rng, n, p if n <= 14 else p / 2)
            _assert_walk_matches_recursion(g, g.all_mask)
            _assert_walk_matches_recursion(g, _random_alive(g, rng))


def test_walk_matches_recursion_on_subdivided_graphs_and_deletions():
    rng = random.Random(11)
    for _ in range(60):
        g = random_subdivided(rng)
        for h in (g, relabeled(g, rng)):
            _assert_walk_matches_recursion(h, h.all_mask)
            if h.n:
                _assert_walk_matches_recursion(h, _random_alive(h, rng))


@pytest.mark.parametrize("m", [7, 8])
def test_walk_prunes_the_twice_subdivided_complete_graphs(m):
    # Enumerating from stems cost 2.3x and 2.8x the recursion's expansions
    # on this family, so the walk must charge less than the recursion here:
    # 14,099 and 111,955 expansions against 17,158 and 131,508.
    g = subdivided_complete(m, 2)
    spent, reference = _assert_walk_matches_recursion(g, g.all_mask)
    assert spent < reference
