"""Command-line entry point.

Subcommands: indicators, mds, compare, synth, validate. Exit codes:
0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import io as bundle_io
from ._lazy import lazy_import
from .model import SolutionSet, validate_solution_set

if TYPE_CHECKING:
    from .distance import DistanceWeights
    from .indicators import CorrelationStats, IndicatorResult
    from .projection import Projection2D

# The numeric layers run their code on first use, so validate and synth
# never execute them. They are registered in sys.modules all the same, where
# perfbench/traced.py looks up the functions it wraps.
distance = lazy_import(f"{__package__}.distance")
indicators = lazy_import(f"{__package__}.indicators")
projection = lazy_import(f"{__package__}.projection")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (bundle_io.BundleError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archspread",
        description="Spread indicators for sets of architecture design alternatives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indicators", help="compute MS and MAS per set")
    _add_bundle_arg(p)
    _add_indicator_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", type=Path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_indicators)

    p = sub.add_parser("mds", help="project the architectural space to 2D")
    _add_bundle_arg(p)
    _add_w_pred_arg(p)
    p.add_argument("--svg", type=Path, help="write a scatter SVG to this path")
    p.add_argument("-o", "--output", type=Path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_projected, shared_maxd=True, mas_allpairs=False)

    p = sub.add_parser("compare", help="indicators + correlation + projection in one report")
    _add_bundle_arg(p)
    _add_indicator_flags(p)
    p.add_argument("--svg", type=Path, help="write a scatter SVG to this path")
    p.add_argument("-o", "--output", type=Path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_projected)

    p = sub.add_parser("synth", help="generate a seeded synthetic bundle")
    positive = _bounded(int, 1)
    p.add_argument("--sets", type=positive, required=True, metavar="K")
    p.add_argument("--n", type=positive, required=True, metavar="N", help="solutions per set")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument("--depth", type=_bounded(int, 0), default=6)
    p.add_argument("--branching", type=positive, default=2)
    p.add_argument("--name-vocab", type=positive, default=5)
    p.add_argument("--arg-vocab", type=positive, default=8)
    p.add_argument("--dispersion", type=_weight, default=1.0)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="check a bundle against the schema and invariants")
    _add_bundle_arg(p)
    p.set_defaults(func=_cmd_validate)
    return parser


def _add_bundle_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("bundle", type=Path, help="path to a bundle JSON file")


def _bounded(kind: type, low: float, high: float = float("inf")):
    """argparse type for an int or float in [low, high]."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not low <= value <= high:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {text!r}")
        return value

    return parse


_weight = _bounded(float, 0, 1)


def _add_w_pred_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w-pred", type=_weight, default=0.5, help="name-channel weight (args get 1 - w)")


def _add_indicator_flags(p: argparse.ArgumentParser) -> None:
    _add_w_pred_arg(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--shared-maxd", dest="shared_maxd", action="store_true", default=True,
        help="normalize MAS by the max padded length over all sets (default)",
    )
    group.add_argument(
        "--per-set-maxd", dest="shared_maxd", action="store_false",
        help="normalize each set's MAS by its own longest sequence",
    )
    p.add_argument(
        "--mas-allpairs", action="store_true",
        help="use the global max pairwise distance for every summand (compatibility reading)",
    )


def _parse_checked(path: Path) -> tuple[bundle_io.AnalysisBundle, list[str]]:
    """Parse the bundle at ``path``, print its warnings and return its invariant violations."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise bundle_io.BundleError(f"$: invalid JSON: {exc}") from None
    bundle = bundle_io.parse_bundle(text)
    for warning in _grouped(bundle.warnings):
        print(f"warning: {warning}", file=sys.stderr)
    return bundle, [v for s in bundle.sets for v in validate_solution_set(s)]


_INDEX = re.compile(r"\[[0-9]+\]")


def _grouped(warnings: tuple[str, ...]) -> list[str]:
    """One line per warning pattern (list indices read ``[*]``), in first-seen order.

    A pattern seen once keeps its warning as given; otherwise the line is the
    pattern with its number of occurrences.
    """
    groups: dict[str, list] = {}
    for warning in warnings:
        groups.setdefault(_INDEX.sub("[*]", warning), [warning, 0])[1] += 1
    return [
        first if count == 1 else f"{pattern} ({count} occurrences)"
        for pattern, (first, count) in groups.items()
    ]


def _load(args) -> tuple[bundle_io.AnalysisBundle, DistanceWeights]:
    bundle, violations = _parse_checked(args.bundle)
    if violations:
        raise bundle_io.BundleError("; ".join(violations))
    return bundle, distance.DistanceWeights(w_pred=args.w_pred, w_args=1.0 - args.w_pred)


def _analyze(
    args, project: bool
) -> tuple[list[SolutionSet], list[IndicatorResult], Projection2D | None]:
    """The sets, their indicators and, with ``project``, the MDS map of all their solutions.

    Each layer is computed once. MAS needs only each solution's
    eccentricity. Without a map they come from the within-set distances,
    block by block. With one, the joint matrix over one solution per
    distinct sequence of all sets is computed and checked once; the
    eccentricities are its row maxima gathered through each set's rows, and
    MDS gives solution ``i`` of all sets, in order, the point of its row.
    """
    bundle, w = _load(args)
    sets = list(bundle.sets)
    if not sets:
        raise ValueError("at least one solution set is required")
    options = {"shared_max_d": args.shared_maxd, "all_pairs": args.mas_allpairs}
    if not project:
        return sets, indicators.indicators_for(sets, w, **options), None
    representatives, index = distance.distinct_sequences([sol for s in sets for sol in s.solutions])
    distinct = SolutionSet("__all__", sets[0].objective_names, tuple(representatives))
    joint = distance.distance_matrix(distinct, w)
    eccentricities = distance.gathered_eccentricities(joint, index, sets)
    results = indicators.indicators_from_eccentricities(sets, eccentricities, **options)
    return sets, results, projection.mds_project(joint, index)


def _correlation(results: list[IndicatorResult]) -> CorrelationStats | None:
    return indicators.spread_correlation(results) if len(results) >= 3 else None


def _emit(documents: dict[str, str], output: Path | None) -> None:
    if output is None:
        for text in documents.values():
            sys.stdout.write(text)
        return
    if len(documents) == 1:
        output.write_text(next(iter(documents.values())), encoding="utf-8")
    else:
        for name, text in documents.items():
            path = output.with_name(f"{output.stem}_{name}{output.suffix or '.csv'}")
            path.write_text(text, encoding="utf-8")


def _cmd_indicators(args) -> int:
    _, results, _ = _analyze(args, project=False)
    # The CSV summary has no correlation column, so only JSON computes it.
    correlation = _correlation(results) if args.format == "json" else None
    _emit(bundle_io.write_report(results, correlation, format=args.format), args.output)
    return 0


def _cmd_projected(args) -> int:
    """mds and compare: the report with the map, and the SVG on request; compare correlates."""
    sets, results, mds = _analyze(args, project=True)
    correlation = _correlation(results) if args.command == "compare" else None
    _emit(bundle_io.write_report(results, correlation, sets, mds), args.output)
    if args.svg is not None:
        args.svg.write_text(bundle_io.emit_scatter_svg(sets, mds, results), encoding="utf-8")
    return 0


def _cmd_synth(args) -> int:
    from .synth import generate_sets, generate_tree

    tree = generate_tree(
        args.seed, args.depth, args.branching, args.name_vocab, args.arg_vocab
    )
    sets = generate_sets(tree, args.seed, args.sets, args.n, args.dispersion)
    bundle = bundle_io.AnalysisBundle(
        name=f"synthetic-seed{args.seed}",
        sets=tuple(sets),
        tree=tree,
        provenance=f"synth --sets {args.sets} --n {args.n} --seed {args.seed}",
    )
    args.output.write_text(bundle_io.write_bundle(bundle), encoding="utf-8")
    return 0


def _cmd_validate(args) -> int:
    bundle, violations = _parse_checked(args.bundle)
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    if violations:
        return 1
    print(f"ok: {bundle.name}: {len(bundle.sets)} set(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
