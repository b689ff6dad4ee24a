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

Induced subgraphs keep a ``labels`` map back to the coordinates of the graph
they were cut from, so that witness sets computed on a subgraph can always be
reported in the caller's coordinates.  ``labels`` is metadata: two graphs
compare equal when they have the same vertex count and adjacency.
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
# 64-bit mask; graph6 input has at most 62 vertices unless a caller raises
# max_n.
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


def _as_mask(vertices: "int | Iterable[int]") -> int:
    return vertices if isinstance(vertices, int) else mask_of(vertices)


class Graph:
    """A simple undirected graph on vertices ``0 .. n-1``.

    Immutable after construction; safe to share freely.  ``labels[v]`` is the
    index of ``v`` in the graph this one was derived from (the identity for
    graphs built directly).  Equality and hashing ignore ``labels``.
    """

    __slots__ = ("n", "adj", "labels")

    n: int
    adj: tuple[int, ...]
    labels: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...], labels: tuple[int, ...] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match vertex count")
        if not labels:
            labels = tuple(range(n))
        elif len(labels) != n:
            raise ValueError("label count does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at edge {u}-{v}")
        self.__setstate__((n, adj, labels))

    def __getstate__(self):
        return self.n, self.adj, self.labels

    def __setstate__(self, state):
        # Stores the fields unchecked.  Unpickling calls this without
        # __init__: a pickled graph was validated when first built, and
        # pickles come only from this program's own worker pool.
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
        return f"Graph(n={self.n!r}, adj={self.adj!r}, labels={self.labels!r})"

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
        return cls(n, tuple(rows))

    # -- basic accessors ---------------------------------------------------

    @property
    def all_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(row):
                out.append((v, u))
        return out

    def closed_neighborhood(self, v: int) -> int:
        """Bitmask of v together with all its neighbors."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        return self.adj[v] | 1 << v

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, vertices: "int | Iterable[int]") -> "Graph":
        """The subgraph induced by ``vertices``; labels point back into self."""
        mask = _as_mask(vertices)
        if mask & ~self.all_mask:
            raise IndexError("vertex set out of range")
        keep = bits(mask)
        index = {v: i for i, v in enumerate(keep)}
        rows = []
        for v in keep:
            row = 0
            for u in bits(self.adj[v] & mask):
                row |= 1 << index[u]
            rows.append(row)
        return Graph(len(keep), tuple(rows), tuple(self.labels[v] for v in keep))

    def delete_vertices(self, vertices: "int | Iterable[int]") -> "Graph":
        """The graph with ``vertices`` removed (induced on the complement)."""
        mask = _as_mask(vertices)
        if mask & ~self.all_mask:
            raise IndexError("vertex set out of range")
        return self.induced_subgraph(self.all_mask & ~mask)

    # -- structure ---------------------------------------------------------

    def components(self) -> list[int]:
        """Connected components as bitmasks, ordered by smallest vertex."""
        return components_of(self.adj, self.all_mask)

    def component_count(self) -> int:
        return len(self.components())

    def is_connected(self) -> bool:
        return self.n == 0 or len(self.components()) == 1

    def is_acyclic(self) -> bool:
        """Forest test via the edge-count characterization e = n - q."""
        return induces_forest(self.adj, self.all_mask)


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
    """Whether the subgraph induced by ``mask`` is acyclic: e = n - q."""
    return subgraph_edge_count(adj, mask) == mask.bit_count() - len(components_of(adj, mask))


def two_core(adj: tuple[int, ...], mask: int, peel: "int | None" = None) -> int:
    """The 2-core of the subgraph induced by ``mask``: vertices with at most
    one neighbour left are stripped until none remains.  When only the
    vertices of ``peel`` can start out with fewer than two neighbours, pass
    it and the strip starts from them alone."""
    if peel is None:
        peel = mask
    while peel:
        low = peel & -peel
        peel ^= low
        if low & mask:
            row = adj[low.bit_length() - 1] & mask
            if not row & (row - 1):
                mask ^= low
                peel |= row
    return mask


def subgraph_edge_count(adj: tuple[int, ...], mask: int) -> int:
    total = 0
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        total += (adj[v] & mask).bit_count()
        m ^= low
    return total // 2


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
