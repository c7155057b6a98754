"""Spread indicators for sets of software architecture design alternatives.

Scores solution sets from multi-objective architecture optimization runs:
the objective-space maximum spread (MS) and an architectural-space maximum
spread (MAS) built on position-wise edit distances between the refactoring
sequences that produced the alternatives, plus MDS projections and
comparison reports.

Each public name loads its module on first access, so a command imports
only the layers it runs.
"""

import importlib

# Without numpy the package fails here, at import, not at first numeric use.
from . import _lazy  # noqa: F401

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOMES = {
    "AnalysisBundle": "io",
    "ArchitectureSolution": "model",
    "BundleError": "io",
    "CorrelationStats": "indicators",
    "DistanceMatrix": "distance",
    "DistanceWeights": "distance",
    "EncodingTable": "encoding",
    "IndicatorResult": "indicators",
    "Projection2D": "projection",
    "SearchTree": "model",
    "SolutionSet": "model",
    "TransformationStep": "model",
    "UnknownNodeError": "encoding",
    "UnreachableNodeError": "encoding",
    "build_encoding": "encoding",
    "distance_matrix": "distance",
    "emit_scatter_svg": "io",
    "extract_sequence": "encoding",
    "indicators_for": "indicators",
    "max_architectural_spread": "indicators",
    "max_spread": "indicators",
    "mds_project": "projection",
    "parse_bundle": "io",
    "sequence_distance": "distance",
    "spread_correlation": "indicators",
    "step_distance": "distance",
    "validate_solution_set": "model",
    "write_bundle": "io",
    "write_report": "io",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
