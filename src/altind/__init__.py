"""Exact independence-polynomial invariants and decycling bounds for small graphs.

Every public name loads its submodule on first use, so a CLI process imports
only what its subcommand runs: ``verify`` and ``analyze`` never load the
constructions.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name with the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    name: module
    for module, names in (
        ("budget", ("Budget", "BudgetExceededError", "DEFAULT_EXPANSIONS")),
        ("graph", ("Graph", "bits", "mask_of", "empty_graph", "path_graph",
                   "cycle_graph", "complete_graph", "disjoint_union")),
        ("graph6", ("Graph6Error", "parse_graph6", "to_graph6", "iter_graph6",
                    "enumerate_labeled_graphs")),
        ("indpoly", ("ORACLE_CAP", "independence_polynomial", "alternating_number",
                     "independent_set_count", "oracle_polynomial")),
        ("cycles", ("CycleReport", "chordless_cycles", "is_ternary",
                    "has_cycle_length_not_div3")),
        ("decycling", ("DecyclingResult", "cyclomatic_number", "min_decycling",
                       "min_ternary_decycling", "minimal_ternary_decycling_sets",
                       "middle_bound", "decycling_summary")),
        ("bounds", ("BoundsReport", "CheckResult", "CHECK_NAMES", "InternalError",
                    "verify_graph", "run_corpus", "summarize")),
        ("constructions", ("ConstructionError", "GadgetRecipe", "build_recipe",
                           "attach_pendant_path", "bridge_gadget", "glue_triangle",
                           "doubler_chain", "realize")),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """A public name or a submodule, imported on first use and then kept in
    the module globals, so later lookups do not come back here."""
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
