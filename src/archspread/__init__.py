"""Spread indicators for sets of software architecture design alternatives.

Scores solution sets from multi-objective architecture optimization runs:
the objective-space maximum spread (MS) and an architectural-space maximum
spread (MAS) built on position-wise edit distances between the refactoring
sequences that produced the alternatives, plus MDS projections and
comparison reports.
"""

from .distance import DistanceWeights, distance_matrix, sequence_distance, step_distance
from .encoding import (
    EncodingTable,
    UnknownNodeError,
    UnreachableNodeError,
    build_encoding,
    extract_sequence,
)
from .indicators import (
    indicators_for,
    max_architectural_spread,
    max_spread,
    spread_correlation,
)
from .io import (
    AnalysisBundle,
    BundleError,
    emit_scatter_svg,
    parse_bundle,
    write_bundle,
    write_report,
)
from .model import (
    ArchitectureSolution,
    CorrelationStats,
    DistanceMatrix,
    IndicatorResult,
    SearchTree,
    SolutionSet,
    TransformationStep,
    validate_solution_set,
)
from .projection import Projection2D, mds_project

__version__ = "0.1.0"

__all__ = [
    "AnalysisBundle",
    "ArchitectureSolution",
    "BundleError",
    "CorrelationStats",
    "DistanceMatrix",
    "DistanceWeights",
    "EncodingTable",
    "IndicatorResult",
    "Projection2D",
    "SearchTree",
    "SolutionSet",
    "TransformationStep",
    "UnknownNodeError",
    "UnreachableNodeError",
    "build_encoding",
    "distance_matrix",
    "emit_scatter_svg",
    "extract_sequence",
    "indicators_for",
    "max_architectural_spread",
    "max_spread",
    "mds_project",
    "parse_bundle",
    "sequence_distance",
    "spread_correlation",
    "step_distance",
    "validate_solution_set",
    "write_bundle",
    "write_report",
]
