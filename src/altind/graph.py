"""Immutable simple graphs stored as per-vertex adjacency bitsets.

Vertices are the integers ``0 .. n-1``.  ``adj[v]`` is an int whose bit ``u``
is set exactly when ``uv`` is an edge, so neighborhood intersections, vertex
deletions and subset tests are single int operations.  Vertex subsets are
passed around either as plain int bitmasks or as iterables of vertex indices;
see :func:`mask_of` and :func:`bits`.

:func:`bits` is the one way masks are turned back into vertex indices.  It
concatenates per-byte position tuples read from eight 256-entry tables, one
per byte of a 64-bit mask, all built at import (about 0.1 ms).  Wider masks,
of graphs on more than 64 vertices, shift byte 0's positions for each byte
past the eighth, so no table is built after import.  Negative ints are not
vertex masks (their two's-complement bits never run out) and are rejected.

A vertex is its bit position and has no other name: every witness is read
off a mask of the graph it was computed on.
"""

from __future__ import annotations

from typing import Iterable


def _byte_table(offset: int) -> tuple[tuple[int, ...], ...]:
    """``table[b]``: the set positions of ``b << offset`` for each byte b."""
    table: list[tuple[int, ...]] = [()]
    for p in range(offset, offset + 8):
        # Bytes with bit p - offset set are those below it plus that bit.
        table += [t + (p,) for t in table]
    return tuple(table)


# _BYTE_BITS[k] is the table of byte k of a mask, for the 8 bytes of a
# 64-bit mask; graph6 input has at most 62 vertices.
_BYTE_BITS = tuple(_byte_table(8 * k) for k in range(8))


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with one bit per vertex index."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` as an ascending tuple.

    Concatenates the positions of each byte, read from the per-byte tables;
    a byte past the eighth takes byte 0's positions shifted by its offset.
    Raises :class:`ValueError` on a negative ``mask``.
    """
    if mask < 256:
        if mask < 0:
            raise ValueError(f"bit positions of a negative int are unbounded: {mask}")
        return _BYTE_BITS[0][mask]
    tables = _BYTE_BITS
    out = tables[0][mask & 255]
    mask >>= 8
    k = 1
    while mask:
        if k < 8:
            out += tables[k][mask & 255]
        elif mask & 255:
            out += tuple([8 * k + p for p in tables[0][mask & 255]])
        mask >>= 8
        k += 1
    return out


class Graph:
    """A simple undirected graph on vertices ``0 .. n-1``.

    Immutable after construction; safe to share freely.  ``adj`` is stored
    as a tuple whatever sequence it was built from.
    """

    __slots__ = ("n", "adj")

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: "Iterable[int]"):
        adj = tuple(adj)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at edge {u}-{v}")
        self.__setstate__((n, adj))

    def __getstate__(self):
        return self.n, self.adj

    def __setstate__(self, state):
        # Stores the fields unchecked.  Unpickling calls this without
        # __init__: a pickled graph was validated when first built.  The
        # CLI's --jobs workers are forked and inherit their graphs, so the
        # program itself never unpickles one.
        for name, value in zip(Graph.__slots__, state):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Graph is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; rejects loops and bad indices."""
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop {u}-{v} not allowed in a simple graph")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    # -- basic accessors ---------------------------------------------------

    @property
    def all_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(row):
                out.append((v, u))
        return out

    # -- structure ---------------------------------------------------------

    def components(self) -> list[int]:
        """Connected components as bitmasks, ordered by smallest vertex."""
        return components_of(self.adj, self.all_mask)

    def component_count(self) -> int:
        return len(self.components())

    def is_connected(self) -> bool:
        return self.n == 0 or len(self.components()) == 1


def components_of(adj: tuple[int, ...], mask: int) -> list[int]:
    """Connected components of the subgraph induced by ``mask``, as bitmasks."""
    comps = []
    remaining = mask
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            grow &= mask & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        remaining &= ~comp
    return comps


def induces_forest(adj: tuple[int, ...], mask: int) -> bool:
    """Whether the subgraph induced by ``mask`` is acyclic: a graph is a
    forest iff its 2-core is empty."""
    return not two_core(adj, mask)


def two_core(adj: tuple[int, ...], mask: int) -> int:
    """The 2-core of the subgraph induced by ``mask``: vertices with at most
    one neighbour left are stripped until none remains."""
    pending = mask
    while pending:
        low = pending & -pending
        pending ^= low
        if low & mask:
            row = adj[low.bit_length() - 1] & mask
            if not row & (row - 1):
                mask ^= low
                pending |= row
    return mask


# -- named builders ----------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph.from_edges(g.n + h.n, edges)
