import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altind import Graph, bits, complete_graph, cycle_graph, disjoint_union, empty_graph, mask_of, path_graph

from conftest import graphs, low_bit_positions


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
    assert g.is_acyclic()


def test_edge_count_is_half_degree_sum():
    g = complete_graph(5)
    assert g.edge_count() == 10
    assert sum(g.degree(v) for v in range(5)) == 20


def test_closed_neighborhood_examples():
    assert bits(cycle_graph(3).closed_neighborhood(0)) == (0, 1, 2)
    assert bits(path_graph(3).closed_neighborhood(0)) == (0, 1)
    assert bits(empty_graph(2).closed_neighborhood(1)) == (1,)


def test_closed_neighborhood_out_of_range():
    with pytest.raises(IndexError):
        path_graph(3).closed_neighborhood(3)


@given(graphs(max_n=8))
def test_closed_neighborhood_size(g):
    for v in range(g.n):
        assert g.closed_neighborhood(v).bit_count() == g.degree(v) + 1


def test_delete_vertices_examples():
    assert cycle_graph(3).delete_vertices([0]) == complete_graph(2)
    assert cycle_graph(6).delete_vertices([0]) == path_graph(5)
    g = cycle_graph(5)
    assert g.delete_vertices([]) == g


def test_delete_vertices_tracks_labels():
    g = cycle_graph(6).delete_vertices([0, 3])
    assert g.labels == (1, 2, 4, 5)
    h = g.delete_vertices([0])
    assert h.labels == (2, 4, 5)


def test_delete_vertices_range_check():
    with pytest.raises(IndexError):
        path_graph(3).delete_vertices([5])


@given(graphs(max_n=8), st.data())
def test_delete_vertices_order_insensitive(g, data):
    s = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)) if g.n else set()
    t = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)) if g.n else set()
    one_shot = g.delete_vertices(s | t)
    stepwise = g.delete_vertices(s).delete_vertices(
        [i for i, lab in enumerate(g.delete_vertices(s).labels) if lab in t]
    )
    assert stepwise == one_shot
    assert stepwise.labels == one_shot.labels


def test_components_examples():
    assert len(disjoint_union(cycle_graph(3), empty_graph(1)).components()) == 2
    assert len(cycle_graph(5).components()) == 1
    assert empty_graph(0).components() == []


def test_components_partition():
    g = disjoint_union(path_graph(3), cycle_graph(4))
    comps = g.components()
    assert comps == [mask_of([0, 1, 2]), mask_of([3, 4, 5, 6])]


def test_is_acyclic_examples():
    assert path_graph(7).is_acyclic()
    assert not cycle_graph(4).is_acyclic()
    assert empty_graph(0).is_acyclic()
    assert empty_graph(5).is_acyclic()


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_is_acyclic_matches_per_component_formulation(g):
    per_component = all(
        g.induced_subgraph(comp).edge_count() == comp.bit_count() - 1
        for comp in g.components()
    )
    assert g.is_acyclic() == per_component


def test_induced_subgraph_keeps_structure():
    g = complete_graph(4).induced_subgraph([1, 2, 3])
    assert g == complete_graph(3)
    assert g.labels == (1, 2, 3)


def test_edges_sorted():
    assert cycle_graph(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_graph_equality_ignores_labels():
    a = cycle_graph(4).delete_vertices([0])
    assert a == path_graph(3)
    assert a.labels != path_graph(3).labels
    assert hash(a) == hash(path_graph(3))
    assert a != cycle_graph(3) and a != (a.n, a.adj)


def test_graph_is_immutable():
    g = path_graph(3)
    for name, value in (("n", 4), ("adj", (0, 0, 0)), ("labels", (2, 1, 0)), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    with pytest.raises(AttributeError):
        del g.n
    assert (g.n, g.adj, g.labels) == (3, (2, 5, 2), (0, 1, 2))


def test_pickle_keeps_labels_without_validating_again(monkeypatch):
    # Worker processes receive their graphs pickled; they were validated
    # when parsed, so restoring them must not pay for it twice.
    g = cycle_graph(6).delete_vertices([0, 3])
    data = pickle.dumps(g)

    def no_validation(*args):
        raise AssertionError("unpickling re-ran the constructor")

    monkeypatch.setattr(Graph, "__init__", no_validation)
    h = pickle.loads(data)
    assert h == g and h.labels == g.labels == (1, 2, 4, 5)


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
