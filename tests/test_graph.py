import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altind import (
    Graph, bits, complete_graph, cycle_graph, disjoint_union, empty_graph, enumerate_labeled_graphs,
    mask_of, path_graph,
)
from altind.graph import components_of, induces_forest

from conftest import graphs, induced, low_bit_positions, without


def test_from_edges_rejects_loops():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(0, 0)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])


def test_adjacency_must_be_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        Graph(2, (2, 0))


def test_empty_graph_is_valid():
    g = empty_graph(0)
    assert g.n == 0
    assert g.edge_count() == 0
    assert g.components() == []
    assert induces_forest(g.adj, g.all_mask)


def test_edge_count_is_half_degree_sum():
    g = complete_graph(5)
    assert g.edge_count() == 10
    assert sum(row.bit_count() for row in g.adj) == 20


def test_delete_vertices_examples():
    assert without(cycle_graph(3), [0]) == complete_graph(2)
    assert without(cycle_graph(6), [0]) == path_graph(5)
    g = cycle_graph(5)
    assert without(g, []) == g


@given(graphs(max_n=8), st.data())
def test_delete_vertices_order_insensitive(g, data):
    s = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)) if g.n else set()
    t = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)) if g.n else set()
    one_shot = without(g, s | t)
    # G - s renumbers its vertices in ascending order; find t among them.
    kept = [v for v in range(g.n) if v not in s]
    stepwise = without(without(g, s), [i for i, v in enumerate(kept) if v in t])
    assert stepwise == one_shot


def test_components_examples():
    assert len(disjoint_union(cycle_graph(3), empty_graph(1)).components()) == 2
    assert len(cycle_graph(5).components()) == 1
    assert empty_graph(0).components() == []


def test_components_partition():
    g = disjoint_union(path_graph(3), cycle_graph(4))
    comps = g.components()
    assert comps == [mask_of([0, 1, 2]), mask_of([3, 4, 5, 6])]


def test_is_acyclic_examples():
    for g, forest in ((path_graph(7), True), (cycle_graph(4), False),
                      (empty_graph(0), True), (empty_graph(5), True)):
        assert induces_forest(g.adj, g.all_mask) is forest


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_is_acyclic_matches_per_component_formulation(g):
    per_component = all(
        induced(g, comp).edge_count() == comp.bit_count() - 1
        for comp in g.components()
    )
    assert induces_forest(g.adj, g.all_mask) == per_component


def test_induces_forest_matches_edge_count_on_every_mask_to_n5():
    # The reference is the definition: a graph with n vertices, e edges and
    # q components is a forest iff e = n - q.
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            for mask in range(1 << n):
                edges = sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2
                forest = edges == mask.bit_count() - len(components_of(g.adj, mask))
                assert induces_forest(g.adj, mask) is forest


def test_induced_subgraph_keeps_structure():
    g = induced(complete_graph(4), [1, 2, 3])
    assert g == complete_graph(3)


def test_edges_sorted():
    assert cycle_graph(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_graph_equality_reads_n_and_adj():
    a = without(cycle_graph(4), [0])
    assert a == path_graph(3)
    assert hash(a) == hash(path_graph(3))
    assert a != cycle_graph(3) and a != (a.n, a.adj)


def test_graph_is_immutable():
    for g in (path_graph(3), Graph(3, [2, 5, 2])):
        for name, value in (("n", 4), ("adj", (0, 0, 0)), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
        with pytest.raises(AttributeError):
            del g.n
        # A list given as adj is stored as a tuple: nothing can append to
        # it, and the graph hashes.
        with pytest.raises(AttributeError):
            g.adj.append(0)
        assert (g.n, g.adj) == (3, (2, 5, 2))
        assert hash(g) == hash(path_graph(3))


def test_pickle_state_is_n_and_adj_without_validating_again(monkeypatch):
    # A pickled graph was validated when first built, so restoring it must
    # not pay for it twice.
    g = without(cycle_graph(6), [0, 3])
    assert g.__getstate__() == (g.n, g.adj) == (4, (2, 1, 8, 4))
    data = pickle.dumps(g)

    def no_validation(*args):
        raise AssertionError("unpickling re-ran the constructor")

    monkeypatch.setattr(Graph, "__init__", no_validation)
    h = pickle.loads(data)
    assert h == g and hash(h) == hash(g)


def test_bits_matches_low_bit_loop_on_every_16_bit_mask():
    for mask in range(1 << 16):
        assert bits(mask) == tuple(low_bit_positions(mask))


def test_bits_matches_low_bit_loop_on_wide_masks():
    # Past the eighth byte, positions come from byte 0's table, shifted.
    rng = random.Random(5)
    for width in list(range(17, 130)) + [500, 1000, 2049, 5008]:
        for _ in range(3):
            mask = rng.getrandbits(width) & rng.getrandbits(width) | 1 << (width - 1)
            assert bits(mask) == tuple(low_bit_positions(mask))
    assert bits((1 << 5008) - 1) == tuple(range(5008))
    assert bits(1 << 20000 | 1) == (0, 20000)


def test_bits_rejects_negative_masks():
    for mask in (-1, -2, -(1 << 70)):
        with pytest.raises(ValueError):
            bits(mask)
