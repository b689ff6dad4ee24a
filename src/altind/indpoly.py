"""Exact independence-polynomial computation.

One engine evaluates I(G; x) at a fixed integer x over vertex bitmasks, by
the vertex identity

    I(G; x) = I(G - v; x) + x * I(G - N[v]; x)

which is exact for every vertex v.  It multiplies across connected
components and memoizes per component bitmask of the top-level graph.  Each
component is classified by its 2-core alone: an empty core means a tree,
evaluated by a tree DP; otherwise the pivot is the core vertex with the most
neighbours in the component, the lowest index on a tie.

For a whole graph the engine runs at one point only.  The coefficients,
``coeffs[k]`` the number of independent k-sets, are the base-2^(n+1) digits
of I(G; 2^(n+1)).  They sum to at most 2^n, so no digit carries into the
next, and digits read until the value runs out end at the independence
number.  The width n + 1 rather than n keeps this true for n = 0, where
I(G; x) = 1 = 2^0.  :func:`_value_at` reads I(G; x) at any other x off the
coefficients: the alternating number is the value at -1, the total count
the value at +1.  The memo keys and pivots do not depend on x, so the one
pass charges the budget what an evaluation at -1 or +1 alone would.

:func:`oracle_polynomial` is the definition-level reference: it enumerates
all ``2^n`` vertex subsets and is deliberately unoptimized.
"""

from __future__ import annotations

from .budget import Budget, ensure_budget
from .graph import Graph, bits, components_of, two_core

ORACLE_CAP = 25


# -- tree DP ---------------------------------------------------------------------


def _tree_order(adj: tuple[int, ...], cmask: int) -> tuple[list[int], dict[int, int]]:
    root = (cmask & -cmask).bit_length() - 1
    parent = {root: -1}
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for u in bits(adj[v] & cmask):
            if u != parent[v]:
                parent[u] = v
                order.append(u)
                stack.append(u)
    return order, parent


def _tree_eval(adj: tuple[int, ...], cmask: int, x: int) -> int:
    """I(T; x) for a tree component, by the rooted include/exclude DP."""
    order, parent = _tree_order(adj, cmask)
    excl: dict[int, int] = {}
    incl: dict[int, int] = {}
    for v in reversed(order):
        e_val = 1
        i_val = x
        for u in bits(adj[v] & cmask):
            if parent[u] == v:
                e_val *= excl[u] + incl[u]
                i_val *= excl[u]
        excl[v] = e_val
        incl[v] = i_val
    root = order[0]
    return excl[root] + incl[root]


# -- the engine ----------------------------------------------------------------


class _IntEngine:
    """Evaluates I(G; x) at a fixed integer x over surviving-vertex bitmasks."""

    __slots__ = ("adj", "x", "budget", "memo")

    def __init__(self, adj: tuple[int, ...], x: int, budget: Budget):
        self.adj = adj
        self.x = x
        self.budget = budget
        self.memo: dict[int, int] = {}

    def eval_mask(self, mask: int) -> int:
        if mask == 0:
            return 1
        result = 1
        for comp in components_of(self.adj, mask):
            result *= self.eval_component(comp)
        return result

    def eval_component(self, cmask: int) -> int:
        cached = self.memo.get(cmask)
        if cached is not None:
            return cached
        self.budget.spend()
        adj = self.adj
        if cmask.bit_count() == 1:
            val = 1 + self.x
        elif not (core := two_core(adj, cmask)):
            val = _tree_eval(adj, cmask, self.x)
        else:
            v = min(bits(core), key=lambda u: (-(adj[u] & cmask).bit_count(), u))
            closed = (adj[v] | 1 << v) & cmask
            val = self.eval_mask(cmask ^ (1 << v)) + self.x * self.eval_mask(cmask & ~closed)
        self.memo[cmask] = val
        return val


# -- public operations -----------------------------------------------------------


def independence_polynomial(g: Graph, budget: "Budget | None" = None) -> list[int]:
    """Exact coefficients of I(G; x); ``coeffs[k]`` counts independent k-sets.

    Read off I(G; 2^(n+1)) as base-2^(n+1) digits (see the module docstring).
    """
    width = g.n + 1
    engine = _IntEngine(g.adj, 1 << width, ensure_budget(budget))
    value = engine.eval_mask(g.all_mask)
    digit = (1 << width) - 1
    coeffs = []
    while value:
        coeffs.append(value & digit)
        value >>= width
    return coeffs


def _value_at(coeffs: list[int], x: int) -> int:
    """I(G; x) from the coefficients of I(G; x), by Horner's rule."""
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def alternating_number(g: Graph, budget: "Budget | None" = None) -> int:
    """I(G; -1): even-size independent sets minus odd-size ones."""
    return _value_at(independence_polynomial(g, budget), -1)


def independent_set_count(g: Graph, budget: "Budget | None" = None) -> int:
    """I(G; 1): the total number of independent sets, the empty set included."""
    return _value_at(independence_polynomial(g, budget), 1)


def oracle_polynomial(g: Graph) -> list[int]:
    """Reference coefficients by brute subset enumeration; refuses
    n > ORACLE_CAP."""
    if g.n > ORACLE_CAP:
        raise ValueError(f"oracle enumeration is limited to n <= {ORACLE_CAP} (got n={g.n})")
    n = g.n
    adj = g.adj
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    indep = bytearray(1 << n)
    indep[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        if indep[rest] and not adj[low.bit_length() - 1] & rest:
            indep[mask] = 1
            coeffs[mask.bit_count()] += 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
