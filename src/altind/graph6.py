"""graph6 encoding and decoding of simple graphs, and labeled enumeration.

graph6 packs the upper triangle of the adjacency matrix column by column
(x01, x02, x12, x03, ...) into 6-bit groups stored as printable bytes with a
+63 offset.  The leading byte(s) encode the vertex count: a single byte for
n <= 62, and 126-prefixed multi-byte forms beyond that, which are decoded
only to report the graph as over the cap of 62 vertices.  One graph per
line; an optional ``>>graph6<<`` header prefix is stripped.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Graph

HEADER = ">>graph6<<"
MAX_N = 62  # the largest n with a one-byte vertex count


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 input."""


# _pair_order's results by n: one entry per vertex count seen.
_PAIR_ORDERS: dict[int, tuple[tuple[int, int], ...]] = {}


def _pair_order(n: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle bit order: (0,1), (0,2), (1,2), (0,3), ...

    Built once per n and shared, hence a tuple."""
    order = _PAIR_ORDERS.get(n)
    if order is None:
        order = _PAIR_ORDERS[n] = tuple((i, j) for j in range(1, n) for i in range(j))
    return order


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a :class:`Graph`.

    Raises :class:`Graph6Error` naming the byte offset for malformed input,
    and rejects graphs on more than :data:`MAX_N` vertices.
    """
    line = text.strip()
    if line.startswith(HEADER):
        line = line[len(HEADER):]
    if not line:
        raise Graph6Error("empty graph6 string")
    data = []
    for i, ch in enumerate(line):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"invalid graph6 byte {ch!r} at offset {i}")
        data.append(val)

    if data[0] < 63:
        n = data[0]
        pos = 1
    elif len(data) >= 2 and data[1] < 63:
        if len(data) < 4:
            raise Graph6Error("truncated extended vertex count")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated extended vertex count")
        n = 0
        for k in range(2, 8):
            n = (n << 6) | data[k]
        pos = 8
    if n > MAX_N:
        raise Graph6Error(f"graph on {n} vertices exceeds the configured cap {MAX_N}")

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated graph6 string: expected {nbytes} data bytes, found {len(body)}"
        )
    if len(body) > nbytes:
        raise Graph6Error(f"trailing garbage at offset {pos + nbytes}")

    rows = [0] * n
    pairs = _pair_order(n)
    for k, (i, j) in enumerate(pairs):
        if body[k // 6] >> (5 - k % 6) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    # Padding bits past the triangle must be zero.
    for k in range(nbits, nbytes * 6):
        if body[k // 6] >> (5 - k % 6) & 1:
            raise Graph6Error(f"nonzero padding bit at offset {pos + k // 6}")
    return Graph(n, rows)


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    n = g.n
    if n > MAX_N:
        raise Graph6Error(f"graph on {n} vertices exceeds the configured cap {MAX_N}")
    out = bytearray([n + 63])
    group = 0
    filled = 0
    for i, j in _pair_order(n):
        group = group << 1 | (g.adj[i] >> j & 1)
        filled += 1
        if filled == 6:
            out.append(group + 63)
            group = 0
            filled = 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return out.decode("ascii")


def iter_graph6(lines: Iterable[str]) -> Iterator[tuple[int, str, "Graph | None", "str | None"]]:
    """Parse a stream of graph6 lines.

    Yields ``(lineno, text, graph, error)`` with 1-based line numbers; blank
    lines are skipped.  Exactly one of ``graph``/``error`` is non-None.
    """
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            yield lineno, text, parse_graph6(text), None
        except Graph6Error as exc:
            yield lineno, text, None, str(exc)


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs on ``n`` vertices, in ascending edge-mask order.

    The edge bit order matches the graph6 upper-triangle order, so graph
    number ``k`` has edge ``pairs[i]`` exactly when bit ``i`` of ``k`` is set.
    """
    pairs = _pair_order(n)
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        m = mask
        while m:
            low = m & -m
            i, j = pairs[low.bit_length() - 1]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            m ^= low
        yield Graph(n, rows)
