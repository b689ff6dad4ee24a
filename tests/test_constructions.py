import random

import pytest

from altind import (
    Graph,
    alternating_number,
    attach_pendant_path,
    bridge_gadget,
    build_recipe,
    cycle_graph,
    doubler_chain,
    empty_graph,
    glue_triangle,
    min_ternary_decycling,
    realize,
)
from altind.constructions import _GADGETS, _PAIRS

from conftest import brute_alternating, random_graph, without


def _pendant_at_contact(kind: str) -> Graph:
    size, edges, contact = _GADGETS[kind]
    return Graph.from_edges(size + 1, edges + [(contact, size)])


def test_gadget_pair_table_is_oracle_verified():
    # The steering table is conjecture; every entry must match the engines.
    for kind, (plus_value, base_value, phi3) in _PAIRS.items():
        size, edges, contact = _GADGETS[kind]
        gadget = Graph.from_edges(size, edges)
        assert alternating_number(gadget) == base_value, kind
        assert brute_alternating(gadget) == base_value, kind
        assert alternating_number(_pendant_at_contact(kind)) == plus_value, kind
        assert min_ternary_decycling(gadget)[0] == phi3, kind


def test_doubler_bridge_decomposition():
    # Removing the contact from the doubling gadget must split it into parts
    # whose alternating numbers multiply to zero; that is what makes the
    # bridge act as pure multiplication by I(gadget) = 2.
    size, edges, contact = _GADGETS["doubler"]
    gadget = Graph.from_edges(size, edges)
    assert alternating_number(gadget) == 2
    remainder = without(gadget, [contact])
    assert alternating_number(remainder) == 0
    assert len(remainder.components()) == 2


def test_sign_flip_examples():
    tri = cycle_graph(3)
    assert alternating_number(attach_pendant_path(tri, 0, 3)) == 2
    assert alternating_number(attach_pendant_path(attach_pendant_path(tri, 1, 3), 2, 3)) == -2
    p4 = attach_pendant_path(empty_graph(1), 0, 3)
    assert p4.n == 4 and alternating_number(p4) == 0


def test_sign_flip_preserves_decycling():
    tri = cycle_graph(3)
    flipped = attach_pendant_path(tri, 0, 3)
    assert min_ternary_decycling(flipped)[0] == 1
    assert flipped.is_connected()


def test_double_flip_preserves_alternating():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 8))
        v = rng.randrange(g.n)
        flipped_once = attach_pendant_path(g, v, 3)
        flipped_twice = attach_pendant_path(flipped_once, rng.randrange(g.n), 3)
        assert alternating_number(flipped_once) == -alternating_number(g)
        assert alternating_number(flipped_twice) == alternating_number(g)


def test_doubler_examples():
    tri = cycle_graph(3)
    once = bridge_gadget(tri, 0, "doubler")
    assert once.n == 10
    assert alternating_number(once) == -4
    assert min_ternary_decycling(once)[0] == 2
    twice = bridge_gadget(once, 0, "doubler")
    assert alternating_number(twice) == -8
    assert min_ternary_decycling(twice)[0] == 3
    from_k1 = bridge_gadget(empty_graph(1), 0, "doubler")
    assert alternating_number(from_k1) == 0
    assert min_ternary_decycling(from_k1)[0] == 1


def test_glue_triangle_examples():
    assert alternating_number(glue_triangle(empty_graph(1), 0)) == -2
    k2 = Graph.from_edges(2, [(0, 1)])
    assert alternating_number(glue_triangle(k2, 0)) == -1
    assert alternating_number(glue_triangle(cycle_graph(3), 0)) == 0


def test_glue_triangle_identity():
    rng = random.Random(12)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 8))
        v = rng.randrange(g.n)
        glued = glue_triangle(g, v)
        expected = alternating_number(g) - 2 * alternating_number(without(g, [v]))
        assert alternating_number(glued) == expected


def test_attach_pendant_path_validates():
    with pytest.raises(IndexError):
        attach_pendant_path(cycle_graph(3), 5, 2)
    with pytest.raises(ValueError):
        attach_pendant_path(cycle_graph(3), 0, 0)


def test_realize_spot_targets():
    g, recipe = realize(1, -2)
    assert g == cycle_graph(3)
    assert recipe.steps == (("base", "C3"),)

    g, _ = realize(1, 0)
    assert alternating_number(g) == 0 and min_ternary_decycling(g)[0] == 1

    g, recipe = realize(2, 3)
    assert alternating_number(g) == 3 and min_ternary_decycling(g)[0] == 2
    assert g.is_connected()


def test_realize_rejects_bad_targets():
    with pytest.raises(ValueError, match="2\\^k"):
        realize(1, 3)
    with pytest.raises(ValueError, match="positive"):
        realize(0, 0)
    # Even targets reduce to the doubling chain.
    g, _ = realize(4, -6)
    assert alternating_number(g) == -6 and min_ternary_decycling(g)[0] == 4


def test_recipe_replay_is_deterministic():
    _, recipe = realize(2, -3)
    first = build_recipe(recipe)
    second = build_recipe(recipe)
    assert first == second and first.adj == second.adj


def test_doubler_chain_tightness():
    for k in (1, 2, 3):
        g, recipe = doubler_chain(k)
        alt = alternating_number(g)
        assert abs(alt) == 1 << k
        assert min_ternary_decycling(g)[0] == k
        assert recipe.q == alt
        assert len(recipe.steps) == k


def test_doubler_chain_matches_manual_composition():
    g, _ = doubler_chain(3)
    manual = bridge_gadget(bridge_gadget(cycle_graph(3), 0, "doubler"), 0, "doubler")
    assert alternating_number(g) == alternating_number(manual)


def test_realize_never_returns_unverified():
    # Oracle-check a realized witness small enough for brute force.
    g, _ = realize(1, 1)
    assert brute_alternating(g) == 1


def test_realized_graphs_have_disjoint_triangle_structure():
    from altind import chordless_cycles

    g, _ = realize(3, 5)
    report = chordless_cycles(g)
    tilde = [c for c in report.chordless_cycles if len(c) % 3 == 0]
    assert len(tilde) == 3
    assert all(len(c) == 3 for c in tilde)
    seen = set()
    for c in tilde:
        assert not seen & set(c)
        seen |= set(c)
