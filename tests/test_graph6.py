import random

import pytest
from hypothesis import given

from altind import (
    Graph6Error,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_labeled_graphs,
    iter_graph6,
    parse_graph6,
    to_graph6,
)

from conftest import graphs, random_graph


def test_single_vertex_decodes():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count() == 0


def test_triangle_decodes():
    g = parse_graph6("Bw")
    assert g == cycle_graph(3)


def test_path_decodes():
    g = parse_graph6("Bg")
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_encode_examples():
    assert to_graph6(cycle_graph(3)) == "Bw"
    assert to_graph6(empty_graph(1)) == "@"
    assert to_graph6(empty_graph(0)) == "?"


def test_header_prefix_is_stripped():
    assert parse_graph6(">>graph6<<Bw") == cycle_graph(3)


def test_roundtrip_100_random_graphs():
    rng = random.Random(20260810)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(0, 21), p=0.4)
        assert parse_graph6(to_graph6(g)) == g


@given(graphs(max_n=12))
def test_roundtrip_property(g):
    assert parse_graph6(to_graph6(g)) == g


def test_truncated_body_reports_length():
    with pytest.raises(Graph6Error, match="expected 2 data bytes, found 1"):
        parse_graph6("D?")


def test_out_of_range_byte_reports_offset():
    with pytest.raises(Graph6Error, match="offset 1"):
        parse_graph6("B!")


def test_trailing_garbage_reports_offset():
    with pytest.raises(Graph6Error, match="trailing garbage at offset 2"):
        parse_graph6("Bww")


def test_nonzero_padding_rejected():
    # n=3 uses only the top 3 bits of the data byte.
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("B" + chr(63 + 0b000111))


def test_empty_string_rejected():
    with pytest.raises(Graph6Error, match="empty"):
        parse_graph6("   ")


def test_extended_count_beyond_cap_rejected():
    # The edgeless graph on 63 vertices: "~" and the count 63 in three
    # 6-bit groups, then 63 * 62 / 2 = 1953 zero bits in 326 bytes.
    big = "~??~" + "?" * 326
    with pytest.raises(Graph6Error, match="graph on 63 vertices exceeds the configured cap 62"):
        parse_graph6(big)
    with pytest.raises(Graph6Error, match="graph on 63 vertices exceeds the configured cap 62"):
        parse_graph6("~~?????~")
    with pytest.raises(Graph6Error, match="truncated extended vertex count"):
        parse_graph6("~?")


def test_cap_applies_to_encoding():
    with pytest.raises(Graph6Error, match="exceeds the configured cap"):
        to_graph6(empty_graph(63))


def test_iter_graph6_reports_line_numbers():
    rows = list(iter_graph6(["Bw", "", "not-a-graph\n", "@"]))
    assert [r[0] for r in rows] == [1, 3, 4]
    assert rows[0][2] == cycle_graph(3)
    assert rows[1][2] is None and "offset" in rows[1][3]
    assert rows[2][2] == empty_graph(1)


def test_enumerate_counts():
    assert len(list(enumerate_labeled_graphs(2))) == 2
    assert len(list(enumerate_labeled_graphs(3))) == 8


def test_enumerate_order_is_edge_mask_ascending():
    gs = list(enumerate_labeled_graphs(3))
    assert gs[0] == empty_graph(3)
    assert sorted(gs[1].edges()) == [(0, 1)]
    assert gs[-1] == complete_graph(3)


def test_enumerate_distinct():
    gs = list(enumerate_labeled_graphs(4))
    assert len({g.adj for g in gs}) == 64
