"""Maximal arcs in PG(2,2^h) and partial flocks of the quadratic cone in PG(3,2^h).

The package builds Denniston and Mathon maximal arcs from conic data,
converts them to additive partial flocks of the quadratic cone both
algebraically and through an explicit projection-and-rewrite chain, and
solves the GF(2) trace-condition systems that produce degree-doubling
Mathon extensions of Denniston arcs.  Every construction is backed by
geometric verification oracles that share nothing with the trace shortcuts:
a count of arc points on every line of PG(2,q), and cone sections compared
one x0 per cone generator.
"""

import importlib

__version__ = "0.1.0"

#: home module -> the names the package exports from it; a module is imported
#: on the first use of one of its names, or of the module itself
_EXPORTS: dict[str, tuple[str, ...]] = {
    "finite_field": ("GF", "least_irreducible", "make_field"),
    "projective": (),
    "mathon_arcs": (
        "ClosureError",
        "Conic",
        "DisjointnessError",
        "MathonArc",
        "MaximalArcReport",
        "arc_from_json",
        "arc_points",
        "arc_to_json",
        "close_set",
        "compose",
        "composition_trace",
        "conic_points",
        "denniston_arc",
        "verify_maximal_arc",
    ),
    "flocks": (
        "FlockClassification",
        "FlockReport",
        "PartialFlock",
        "additive_to_geometric",
        "arc_to_flock",
        "classify_flock",
        "denniston_closure",
        "denniston_line",
        "denniston_lines_concurrent",
        "extend_flock",
        "flock_from_json",
        "flock_to_arc",
        "flock_to_json",
        "geometric_to_additive",
        "is_denniston_type",
        "plane_compose",
        "plane_section",
        "project_arc",
        "project_conic_to_plane",
        "projection_singular_plane",
        "singular_plane",
        "synthetic_extension",
        "verify_partial_flock",
    ),
    "search": (
        "GroupSpec",
        "RankAnalysis",
        "SearchRecord",
        "TraceConditionSystem",
        "additive_subgroups_containing_one",
        "build_trace_system",
        "construct_extension_arc",
        "double_spec",
        "enumerate_group_specs",
        "guaranteed_degree",
        "rank_analysis",
        "search_field",
        "search_group",
        "solve_trace_system",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """A submodule, or an exported name from its home module, imported on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return __all__
