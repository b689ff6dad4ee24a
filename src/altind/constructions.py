"""Extremal witness construction for the bound |I(G;-1)| <= 2^phi3.

Witnesses are assembled from a small gadget algebra and re-verified by the
exact engines before being returned; the algebraic step effects below are
conjectured rewrite rules used only to steer the search, never trusted.

Bridging a gadget H with contact u onto any vertex v of G through a fresh
middle vertex m (edges v-m, m-u) gives, by pivoting on m,

    I(G'; -1) = I(G; -1) * I(H; -1)  -  I(G - v; -1) * I(H - u; -1),

so a gadget with I(H - u; -1) = 0 acts as pure multiplication by I(H; -1)
regardless of where it lands.  The doubler gadget (triangle with a pendant
path of three, contact at the middle path vertex) has I = 2 and splits at
the contact into (triangle + pendant) and an isolated vertex, whose
alternating numbers multiply to 0; that is exactly the condition that makes
the bridge act as multiplication by 2, and a unit test re-checks this
decomposition rather than assuming it.

Bridging several gadgets H_1 .. H_m onto a single hub vertex h and pivoting
on h gives

    I = prod_i I(H_i + pendant at contact; -1) - prod_i I(H_i; -1),

which reaches the odd values; the bridge vertices lie on no cycle, so the
chordless cycles of a hub graph are exactly the gadget triangles and the
ternary decycling number is the number of triangle-bearing gadgets.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import NamedTuple

from .budget import Budget, ensure_budget
from .graph import Graph, cycle_graph, empty_graph
from .decycling import min_ternary_decycling
from .indpoly import alternating_number


class ConstructionError(RuntimeError):
    """No verified witness was found within the search bounds."""


# Gadget layouts: (vertex count, edges, contact vertex) in local indices.
_GADGETS: dict[str, tuple[int, list[tuple[int, int]], int]] = {
    "triangle": (3, [(0, 1), (0, 2), (1, 2)], 0),
    "edge": (2, [(0, 1)], 0),
    "vertex": (1, [], 0),
    "paw_shared": (4, [(0, 1), (0, 2), (1, 2), (0, 3)], 0),
    "paw_rim": (4, [(0, 1), (0, 2), (1, 2), (0, 3)], 1),
    "paw_pendant": (4, [(0, 1), (0, 2), (1, 2), (0, 3)], 3),
    "doubler": (6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5)], 4),
}

# Conjectured per-gadget algebra, oracle-verified in the test suite:
# kind -> (I with a pendant at the contact, I of the bare gadget, phi3).
_PAIRS: dict[str, tuple[int, int, int]] = {
    "triangle": (-1, -2, 1),
    "edge": (-1, -1, 0),
    "vertex": (-1, 0, 0),
    "paw_shared": (-1, -1, 1),
    "paw_rim": (0, -1, 1),
    "paw_pendant": (1, -1, 1),
    "doubler": (2, 2, 1),
}

_KIND_ORDER = (
    "triangle",
    "paw_shared",
    "paw_rim",
    "paw_pendant",
    "doubler",
    "edge",
    "vertex",
)

Step = tuple


class GadgetRecipe(NamedTuple):
    """A replayable build: an ordered step list plus the (k, q) it realizes."""

    steps: tuple[Step, ...]
    k: int
    q: int


def _base_graph(name: str) -> Graph:
    if name == "K1":
        return empty_graph(1)
    if name == "C3":
        return cycle_graph(3)
    raise ValueError(f"unknown base graph {name!r}")


def _extend(g: Graph, extra: int, new_edges: list[tuple[int, int]]) -> Graph:
    return Graph.from_edges(g.n + extra, g.edges() + new_edges)


def attach_pendant_path(g: Graph, v: int, length: int) -> Graph:
    """Hang a path of ``length`` fresh vertices off vertex v."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    if length < 1:
        raise ValueError("pendant path length must be positive")
    edges = [(v, g.n)]
    edges.extend((g.n + i, g.n + i + 1) for i in range(length - 1))
    return _extend(g, length, edges)


def bridge_gadget(g: Graph, v: int, kind: str) -> Graph:
    """Connect gadget ``kind`` to v through a fresh 2-edge bridge."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    size, edges, contact = _GADGETS[kind]
    m = g.n
    base = g.n + 1
    new_edges = [(v, m), (m, base + contact)]
    new_edges.extend((base + a, base + b) for a, b in edges)
    return _extend(g, 1 + size, new_edges)


def glue_triangle(g: Graph, v: int) -> Graph:
    """Add two fresh vertices completing a triangle with v."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    a, b = g.n, g.n + 1
    return _extend(g, 2, [(v, a), (v, b), (a, b)])


def apply_step(g: "Graph | None", step: Step) -> Graph:
    op = step[0]
    if op == "base":
        if g is not None:
            raise ValueError("base step must come first")
        return _base_graph(step[1])
    if g is None:
        raise ValueError("recipe must start with a base step")
    if op == "attach_pendant_path":
        return attach_pendant_path(g, step[1], step[2])
    if op == "bridge_gadget":
        return bridge_gadget(g, step[2], step[1])
    if op == "glue_triangle":
        return glue_triangle(g, step[1])
    raise ValueError(f"unknown recipe step {step!r}")


def build_recipe(steps: "tuple[Step, ...] | GadgetRecipe") -> Graph:
    """Replay a step list deterministically into a labeled graph."""
    if isinstance(steps, GadgetRecipe):
        steps = steps.steps
    g: "Graph | None" = None
    for step in steps:
        g = apply_step(g, step)
    if g is None:
        raise ValueError("empty recipe")
    return g


# -- target realization ----------------------------------------------------------


def _verify_target(steps: tuple[Step, ...], k: int, q: int, budget: Budget) -> "Graph | None":
    g = build_recipe(steps)
    if not g.is_connected():
        return None
    if alternating_number(g, budget) != q:
        return None
    if min_ternary_decycling(g, budget)[0] != k:
        return None
    return g


_K1_RECIPES: dict[int, tuple[Step, ...]] = {
    -2: (("base", "C3"),),
    -1: (("base", "C3"), ("attach_pendant_path", 0, 1)),
    0: (("base", "C3"), ("glue_triangle", 0)),
    1: (("base", "C3"), ("attach_pendant_path", 0, 1), ("attach_pendant_path", 0, 3)),
    2: (("base", "C3"), ("attach_pendant_path", 0, 3)),
}


@cache
def _hub_table(k: int) -> dict[int, tuple[tuple[Step, ...], ...]]:
    """Hub multisets over the gadget library with predicted ternary
    decycling number k, keyed by predicted value, cheapest first."""
    phi_kinds = [kind for kind in _KIND_ORDER if _PAIRS[kind][2] == 1]
    free_kinds = [kind for kind in _KIND_ORDER if _PAIRS[kind][2] == 0]
    kinds = phi_kinds + free_kinds
    table: dict[int, list[tuple[Step, ...]]] = {}
    phi_ranges = [range(k + 1)] * len(phi_kinds)
    free_ranges = [range(3) if kind == "edge" else range(2) for kind in free_kinds]
    for phi_counts in product(*phi_ranges):
        if sum(phi_counts) != k:
            continue
        for free_counts in product(*free_ranges):
            plus, base = 1, 1
            steps: list[Step] = [("base", "K1")]
            for kind, count in zip(kinds, phi_counts + free_counts):
                p, b, _ = _PAIRS[kind]
                plus *= p**count
                base *= b**count
                steps.extend((("bridge_gadget", kind, 0),) * count)
            table.setdefault(plus - base, []).append(tuple(steps))
    return {q: tuple(sorted(m, key=lambda s: (len(s), s))) for q, m in table.items()}


def realize(k: int, q: int, budget: "Budget | None" = None) -> tuple[Graph, GadgetRecipe]:
    """A connected graph with ternary decycling number k and I(G;-1) = q.

    Every candidate is re-verified by the exact engines before being
    returned; an unverified graph is never emitted.  Raises
    :class:`ConstructionError` when the bounded search is exhausted.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if abs(q) > 1 << k:
        raise ValueError(f"|q| must be at most 2^k = {1 << k}")
    budget = ensure_budget(budget)

    candidates: list[tuple[Step, ...]] = []
    if k == 1:
        candidates.append(_K1_RECIPES[q])
    elif q == 0:
        steps: list[Step] = [("base", "K1")]
        steps.extend((("bridge_gadget", "doubler", 0),) * k)
        candidates.append(tuple(steps))
    elif q % 2 == 0:
        _, inner = realize(k - 1, q // 2, budget)
        candidates.append(inner.steps + (("bridge_gadget", "doubler", 0),))
    else:
        candidates.extend(_hub_table(k).get(q, ()))

    for steps in candidates:
        g = _verify_target(steps, k, q, budget)
        if g is not None:
            return g, GadgetRecipe(steps=steps, k=k, q=q)
    raise ConstructionError(f"no verified witness found for (k={k}, q={q})")


def doubler_chain(k: int, budget: "Budget | None" = None) -> tuple[Graph, GadgetRecipe]:
    """Triangle plus k-1 doubling bridges: |I| = 2^k with phi3 = k, so the
    bound chain is tight at every k.  Verified by the exact engines."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    budget = ensure_budget(budget)
    steps: tuple[Step, ...] = (("base", "C3"),)
    steps += (("bridge_gadget", "doubler", 0),) * (k - 1)
    g = build_recipe(steps)
    alt = alternating_number(g, budget)
    phi3 = min_ternary_decycling(g, budget)[0]
    if abs(alt) != 1 << k or phi3 != k:
        raise ConstructionError(
            f"doubler chain verification failed for k={k}: I={alt}, phi3={phi3}"
        )
    return g, GadgetRecipe(steps=steps, k=k, q=alt)
