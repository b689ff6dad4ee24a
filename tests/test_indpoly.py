from math import comb

import pytest
from hypothesis import given, settings

from altind import (
    ORACLE_CAP,
    Budget,
    BudgetExceededError,
    Graph,
    alternating_number,
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_labeled_graphs,
    independence_polynomial,
    independent_set_count,
    oracle_polynomial,
    path_graph,
)
from altind.graph import two_core

from conftest import (
    brute_alternating, brute_count, brute_polynomial, graphs, low_bit_positions, without,
)

# Alternating numbers of paths repeat with period 6 starting at P0.
PATH_PERIOD = (1, 0, -1, -1, 0, 1)


def path_alt(n: int) -> int:
    return PATH_PERIOD[n % 6]


def test_polynomial_examples():
    assert independence_polynomial(empty_graph(1)) == [1, 1]
    assert independence_polynomial(cycle_graph(3)) == [1, 3]
    # Frozen from the subset oracle.
    assert independence_polynomial(cycle_graph(6)) == [1, 6, 9, 2]


def test_empty_graph_polynomial():
    assert independence_polynomial(empty_graph(0)) == [1]
    assert alternating_number(empty_graph(0)) == 1
    assert independent_set_count(empty_graph(0)) == 1


def test_edgeless_polynomial_is_binomial():
    assert independence_polynomial(empty_graph(4)) == [1, 4, 6, 4, 1]
    # 62 vertices is graph6's default cap; C(62, 31) is the widest digit.
    assert independence_polynomial(empty_graph(62)) == [comb(62, k) for k in range(63)]


def test_alternating_examples():
    assert alternating_number(cycle_graph(3)) == -2
    assert alternating_number(path_graph(4)) == 0
    assert alternating_number(path_graph(5)) == 1
    assert alternating_number(cycle_graph(6)) == 2
    assert alternating_number(cycle_graph(9)) == -2


def test_count_examples():
    assert independent_set_count(empty_graph(1)) == 2
    assert independent_set_count(cycle_graph(3)) == 4
    assert independent_set_count(cycle_graph(6)) == 18


def test_count_is_power_of_two_iff_edgeless():
    assert independent_set_count(empty_graph(5)) == 32
    assert independent_set_count(path_graph(5)) != 32


def test_oracle_examples():
    assert oracle_polynomial(path_graph(3)) == [1, 3, 1]
    coeffs = oracle_polynomial(cycle_graph(9))
    assert sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs)) == -2


def test_oracle_refuses_large_graphs():
    with pytest.raises(ValueError, match=f"n <= {ORACLE_CAP} \\(got n={ORACLE_CAP + 1}\\)"):
        oracle_polynomial(empty_graph(ORACLE_CAP + 1))
    assert oracle_polynomial(empty_graph(4)) == independence_polynomial(empty_graph(4))


def test_engine_equals_oracle_exhaustively_to_n5():
    # The alternating number is read off these coefficients, so both spend
    # the same expansions.
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            poly_budget, alt_budget = Budget(), Budget()
            assert independence_polynomial(g, poly_budget) == oracle_polynomial(g)
            alternating_number(g, alt_budget)
            assert poly_budget.used == alt_budget.used


def test_pivot_in_the_core_but_on_no_cycle():
    # Two triangles joined through a hub 6 adjacent to 0 and 3, with
    # pendant leaves 7 and 8.  The hub has the most neighbours of any
    # 2-core vertex, so the engine pivots on it, though it lies on no cycle.
    g = Graph.from_edges(9, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                             (6, 0), (6, 3), (6, 7), (6, 8)])
    core = two_core(g.adj, g.all_mask)
    assert core == 0b1111111
    assert max(bits(core), key=lambda v: (g.adj[v].bit_count(), -v)) == 6
    coeffs = oracle_polynomial(g)
    assert independence_polynomial(g) == coeffs
    assert alternating_number(g) == sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs))
    assert independent_set_count(g) == sum(coeffs)


@given(graphs(max_n=9))
@settings(max_examples=120)
def test_engine_equals_brute_polynomial(g):
    assert independence_polynomial(g) == brute_polynomial(g)


@given(graphs(max_n=9))
@settings(max_examples=120)
def test_coefficient_invariants(g):
    coeffs = independence_polynomial(g)
    assert coeffs[0] == 1
    if g.n:
        assert coeffs[1] == g.n
    assert all(c >= 0 for c in coeffs)
    sub = max((s for s in range(1 << g.n) if _independent(g, s)), key=int.bit_count, default=0)
    assert len(coeffs) - 1 == sub.bit_count()


def _independent(g: Graph, mask: int) -> bool:
    return all(not g.adj[v] & mask for v in range(g.n) if mask >> v & 1)


@given(graphs(max_n=8))
@settings(max_examples=80)
def test_deletion_recurrence_at_every_pivot(g):
    coeffs = independence_polynomial(g)
    for v in range(g.n):
        minus_v = independence_polynomial(without(g, [v]))
        minus_nv = independence_polynomial(without(g, [v, *low_bit_positions(g.adj[v])]))
        combined = minus_v[:]
        for k, c in enumerate(minus_nv):
            if k + 1 < len(combined):
                combined[k + 1] += c
            else:
                combined.append(c)
        assert combined == coeffs


@given(graphs(max_n=6), graphs(max_n=6))
@settings(max_examples=80)
def test_component_multiplicativity(g, h):
    prod = [0] * (len(independence_polynomial(g)) + len(independence_polynomial(h)) - 1)
    pg, ph = independence_polynomial(g), independence_polynomial(h)
    for i, a in enumerate(pg):
        for j, b in enumerate(ph):
            prod[i + j] += a * b
    assert independence_polynomial(disjoint_union(g, h)) == prod


@given(graphs(max_n=9))
@settings(max_examples=120)
def test_evaluations_match_polynomial(g):
    coeffs = independence_polynomial(g)
    assert alternating_number(g) == sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs))
    assert independent_set_count(g) == sum(coeffs)
    assert alternating_number(g) == brute_alternating(g)
    assert independent_set_count(g) == brute_count(g)


def test_path_closed_form():
    for n in range(37):
        assert alternating_number(path_graph(n) if n else empty_graph(0)) == path_alt(n)


def test_cycle_closed_form():
    for n in range(3, 37):
        assert alternating_number(cycle_graph(n)) == path_alt(n - 1) - path_alt(n - 3)
    for k in range(1, 13):
        assert abs(alternating_number(cycle_graph(3 * k))) == 2


def test_closed_forms_against_oracle():
    for n in range(3, 16):
        path_coeffs = oracle_polynomial(path_graph(n))
        assert sum(c if k % 2 == 0 else -c for k, c in enumerate(path_coeffs)) == path_alt(n)
        cyc_coeffs = oracle_polynomial(cycle_graph(n))
        assert (
            sum(c if k % 2 == 0 else -c for k, c in enumerate(cyc_coeffs))
            == path_alt(n - 1) - path_alt(n - 3)
        )


def test_budget_exhaustion_is_an_error():
    g = complete_graph(12)
    with pytest.raises(BudgetExceededError, match="instance too large"):
        independence_polynomial(g, Budget(2))
    with pytest.raises(BudgetExceededError):
        alternating_number(g, Budget(2))


def test_disjoint_triangles_give_a_binomial_power():
    triangles = empty_graph(0)
    for _ in range(20):
        triangles = disjoint_union(triangles, cycle_graph(3))
    assert independence_polynomial(triangles) == [comb(20, k) * 3**k for k in range(21)]


def test_dense_graph_runs_within_default_budget():
    g = complete_graph(30)
    assert independence_polynomial(g) == [1, 30]
