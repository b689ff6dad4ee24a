"""Exact independence-polynomial invariants and decycling bounds for small graphs."""

from .budget import Budget, BudgetExceededError, DEFAULT_EXPANSIONS
from .graph import (
    Graph,
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    mask_of,
    path_graph,
)
from .graph6 import (
    Graph6Error,
    enumerate_labeled_graphs,
    iter_graph6,
    parse_graph6,
    to_graph6,
)
from .indpoly import (
    ORACLE_CAP,
    alternating_number,
    independence_polynomial,
    independent_set_count,
    oracle_polynomial,
)
from .cycles import (
    CycleReport,
    chordless_cycles,
    has_cycle_length_not_div3,
    is_ternary,
)
from .decycling import (
    DecyclingResult,
    cyclomatic_number,
    decycling_summary,
    middle_bound,
    min_decycling,
    min_ternary_decycling,
    minimal_ternary_decycling_sets,
)
from .bounds import (
    BoundsReport,
    CheckResult,
    CHECK_NAMES,
    InternalError,
    run_corpus,
    summarize,
    verify_graph,
)

# The constructions serve only ``altind generate`` and library callers, so
# they load on first access rather than with every CLI process.
_CONSTRUCTIONS = frozenset({
    "ConstructionError",
    "GadgetRecipe",
    "attach_pendant_path",
    "bridge_gadget",
    "build_recipe",
    "doubler_chain",
    "glue_triangle",
    "realize",
})


def __getattr__(name: str):
    if name in _CONSTRUCTIONS:
        from . import constructions

        return getattr(constructions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExceededError",
    "DEFAULT_EXPANSIONS",
    "Graph",
    "bits",
    "mask_of",
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "disjoint_union",
    "Graph6Error",
    "parse_graph6",
    "to_graph6",
    "iter_graph6",
    "enumerate_labeled_graphs",
    "ORACLE_CAP",
    "independence_polynomial",
    "alternating_number",
    "independent_set_count",
    "oracle_polynomial",
    "CycleReport",
    "chordless_cycles",
    "is_ternary",
    "has_cycle_length_not_div3",
    "DecyclingResult",
    "cyclomatic_number",
    "min_decycling",
    "min_ternary_decycling",
    "minimal_ternary_decycling_sets",
    "middle_bound",
    "decycling_summary",
    "BoundsReport",
    "CheckResult",
    "CHECK_NAMES",
    "InternalError",
    "verify_graph",
    "run_corpus",
    "summarize",
    "ConstructionError",
    "GadgetRecipe",
    "build_recipe",
    "attach_pendant_path",
    "bridge_gadget",
    "glue_triangle",
    "doubler_chain",
    "realize",
]
