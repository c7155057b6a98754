"""Workload definitions shared by the driver and its child processes.

Standard library only: the driver imports this module and must stay small,
because a child's peak RSS as reported by ``wait4`` starts from the driver's
resident size at the moment it spawned the child.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """Input size of one workload."""

    depth: int  # tree depth (synth.generate_tree)
    branching: int
    name_vocab: int
    arg_vocab: int
    sets: int
    per_set: int  # solutions per set
    cluster_depth: int  # depth of the subtree a clustered draw comes from


@dataclass(frozen=True)
class Workload:
    name: str
    # archspread argv after the program name; {bundle}, {report} and {svg}
    # are replaced with paths in the run's work directory.
    argv: tuple[str, ...]
    # Solutions reference tree nodes instead of carrying their sequence.
    by_node: bool
    # Dispersion of set k out of K: share of draws from the whole tree
    # rather than from the set's cluster subtree.
    dispersion: tuple[float, float]
    full: Shape
    tiny: Shape


WORKLOADS = {
    w.name: w
    for w in (
        # Paper scale (2 x 277 = 554, L_pad 9, U ~ 316): distance does most of
        # the in-process work, MDS and SVG the rest.
        Workload(
            name="paper_compare",
            argv=("compare", "{bundle}", "--svg", "{svg}", "-o", "{report}"),
            by_node=False,
            dispersion=(1.0, 0.3),
            full=Shape(9, 2, 6, 9, sets=2, per_set=277, cluster_depth=1),
            tiny=Shape(4, 2, 3, 4, sets=2, per_set=8, cluster_depth=1),
        ),
        # Many small distance matrices and no MDS; import and parse dominate.
        Workload(
            name="many_sets_indicators",
            argv=("indicators", "{bundle}", "--format", "csv", "-o", "{report}"),
            by_node=False,
            dispersion=(0.0, 1.0),
            full=Shape(9, 2, 6, 9, sets=48, per_set=40, cluster_depth=3),
            tiny=Shape(4, 2, 3, 4, sets=4, per_set=5, cluster_depth=1),
        ),
        # Tree path extraction inside parse_bundle; no distance, no MDS.
        Workload(
            name="tree_ingest_validate",
            argv=("validate", "{bundle}"),
            by_node=True,
            dispersion=(1.0, 0.5),
            full=Shape(11, 2, 6, 9, sets=2, per_set=250, cluster_depth=1),
            tiny=Shape(4, 2, 3, 4, sets=2, per_set=6, cluster_depth=1),
        ),
    )
}


def report_suffix(workload: Workload) -> str:
    return ".csv" if "csv" in workload.argv else ".json"
