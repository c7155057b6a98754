"""Bundle ingestion, report serialization, and SVG scatter emission."""

from __future__ import annotations

import gc
import io as _stdio
import json
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _ascii
from operator import is_, itemgetter
from types import NoneType
from typing import TYPE_CHECKING, Callable, Sequence

from .encoding import PathResolver, UnknownNodeError, UnreachableNodeError
from .model import ArchitectureSolution, SearchTree, SolutionSet, TransformationStep, _Record

if TYPE_CHECKING:
    from .indicators import CorrelationStats, IndicatorResult
    from .projection import Projection2D


class BundleError(ValueError):
    """Schema or referential-integrity violation; message carries the JSON path."""


class AnalysisBundle(_Record):
    """One analysis input: named solution sets, optionally backed by a search tree.

    ``warnings`` take no part in ``==`` or ``hash``.
    """

    __slots__ = __match_args__ = ("name", "sets", "tree", "provenance", "warnings")
    _compared = ("name", "sets", "tree", "provenance")
    name: str
    sets: tuple[SolutionSet, ...]
    tree: SearchTree | None
    provenance: str
    warnings: tuple[str, ...]

    def __init__(
        self,
        name: str,
        sets: tuple[SolutionSet, ...],
        tree: SearchTree | None = None,
        provenance: str = "",
        warnings: tuple[str, ...] = (),
    ) -> None:
        self._fill(name, sets, tree, provenance, warnings)


Resolve = Callable[[str], tuple[TransformationStep, ...]]
# One TransformationStep per distinct (name, args) of a bundle, holding only
# steps that passed every check.
Steps = dict[tuple[str, tuple[str, ...]], TransformationStep]

_BUNDLE_KEYS = {"name", "tree", "sets", "provenance"}
_TREE_KEYS = {"root", "nodes", "edges"}
_EDGE_KEYS = {"from", "to", "step"}
_SET_KEYS = {"label", "objective_names", "solutions"}
_SOLUTION_KEYS = {"id", "objectives", "sequence", "node"}
_STEP_KEYS = {"name", "args"}


def parse_bundle(text: str) -> AnalysisBundle:
    """Parse the JSON bundle format into an AnalysisBundle.

    Each solution either carries an explicit "sequence" or references a tree
    "node" (its sequence is then the shortest root path, see ``PathResolver``;
    the tree is walked once per bundle, on the first node reference). Equal
    steps, in tree edges and sequences alike, come back as one shared
    ``TransformationStep``. Unknown fields are collected as warnings on the
    returned bundle, not errors.

    The cyclic garbage collector is paused for the whole parse and then left
    as the caller had it. What the parse builds holds no reference cycle, so
    a collection during it would only scan the objects it allocates.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_document(text)
    finally:
        if enabled:
            gc.enable()


def _parse_document(text: str) -> AnalysisBundle:
    steps: Steps = {}
    doc = _object(_load_json(text, steps), "$", "bundle must be a JSON object")
    warnings: list[str] = []
    _unknown_keys(doc, _BUNDLE_KEYS, "$", warnings)

    name = _text(doc, "name", "$")
    provenance = doc.get("provenance", "")
    if not isinstance(provenance, str):
        raise BundleError("$.provenance: must be a string")

    tree = _parse_tree(doc["tree"], steps, warnings) if "tree" in doc else None
    resolve = _node_resolver(tree)

    raw_sets = _require(doc, "sets", list, "$")
    sets = []
    labels: set[str] = set()
    for i, raw_set in enumerate(raw_sets):
        where = f"$.sets[{i}]"
        raw_set = _object(raw_set, where)
        _unknown_keys(raw_set, _SET_KEYS, where, warnings)
        label = _text(raw_set, "label", where)
        if label in labels:
            raise BundleError(f"{where}.label: duplicate set label {label!r}")
        labels.add(label)
        objective_names = _string_list(
            _require(raw_set, "objective_names", list, where), f"{where}.objective_names"
        )
        raw_solutions = _require(raw_set, "solutions", list, where)
        solutions = _valid_solutions(raw_solutions, resolve)
        if solutions is None:
            solutions = [
                _parse_solution(raw_sol, f"{where}.solutions[{j}]", resolve, steps, warnings)
                for j, raw_sol in enumerate(raw_solutions)
            ]
        sets.append(SolutionSet(label, objective_names, solutions))
    return AnalysisBundle(
        name=name,
        sets=tuple(sets),
        tree=tree,
        provenance=provenance,
        warnings=tuple(warnings),
    )


def _load_json(text: str, steps: Steps) -> object:
    """The decoded ``text``, each step and tree edge in it decoded straight
    into what the bundle holds.

    An object whose keys are ``name`` and, optionally, ``args``, with a string
    name and a list of string args, becomes the shared ``TransformationStep``,
    so no step's dict outlives its own decoding. One that
    ``TransformationStep`` rejects stays a dict, for the parse pass to report
    at its JSON path. Objects decode innermost first, so an object whose keys
    are exactly ``from``, ``to`` and ``step``, with string ends and a step
    already interned, becomes the ``(from, to, step)`` triple that
    ``SearchTree.edges`` holds. JSON decodes to no other tuple.

    A step with exactly a ``name`` and an ``args`` list, already interned,
    and an edge with exactly ``from``, ``to`` and an interned ``step``, are
    told apart by their number of keys and resolve with one lookup each,
    whatever the order of their keys; every other object takes the general
    path, which gives the same result.
    """

    def decode(obj: dict) -> object:
        n = len(obj)
        if n == 2:
            # A key other than "name" makes the lookup key (None, ...): no step.
            args = obj.get("args")
            if type(args) is list:
                try:
                    step = steps.get((obj.get("name"), tuple(args)))
                except TypeError:  # an unhashable arg
                    step = None
                if step is not None:
                    return step
        elif n == 3:
            # No step has three keys: an object that is no edge stays a dict.
            step = obj.get("step")
            if type(step) is TransformationStep:
                src, dst = obj.get("from"), obj.get("to")
                if type(src) is str and type(dst) is str:
                    return src, dst, step
            return obj
        if not obj.keys() <= _STEP_KEYS:
            return obj
        name, args = obj.get("name"), obj.get("args", [])
        if not (isinstance(name, str) and isinstance(args, list)):
            return obj
        try:
            key = (name, tuple(args))
            step = steps.get(key)
            if step is None and all(isinstance(a, str) for a in args):
                step = steps[key] = TransformationStep(*key)
        except (TypeError, ValueError):  # an unhashable arg; a blank name or token
            return obj
        return obj if step is None else step

    # Malformed text, an integer literal beyond the int-to-str digit limit and
    # nesting deeper than the recursion limit all end here.
    try:
        return json.loads(text, object_hook=decode)
    except (ValueError, RecursionError) as exc:
        raise BundleError(f"$: invalid JSON: {exc}") from None


def _object(raw: object, where: str, message: str = "must be an object") -> dict:
    """``raw`` where an object is expected; a step or an edge that decoding
    turned into a value counts as the object it was decoded from."""
    if isinstance(raw, TransformationStep):
        return {"name": raw.name, "args": list(raw.args)}
    if type(raw) is tuple:
        src, dst, step = raw
        return {"from": src, "to": dst, "step": step}
    if not isinstance(raw, dict):
        raise BundleError(f"{where}: {message}")
    return raw


def _parse_tree(raw: object, steps: Steps, warnings: list[str]) -> SearchTree:
    raw = _object(raw, "$.tree")
    _unknown_keys(raw, _TREE_KEYS, "$.tree", warnings)
    root = _require(raw, "root", str, "$.tree")
    nodes = _string_list(_require(raw, "nodes", list, "$.tree"), "$.tree.nodes")
    known = set(nodes)
    if root not in known:
        raise BundleError(f"$.tree.root: unknown node {root!r}")
    edges = _require(raw, "edges", list, "$.tree")
    for i, edge in enumerate(edges):
        # Decoding made each well-formed edge a triple; only its ends are left to check.
        if type(edge) is tuple and edge[0] in known and edge[1] in known:
            continue
        edges[i] = _parse_edge(edge, f"$.tree.edges[{i}]", known, steps, warnings)
    return SearchTree(nodes=nodes, root_id=root, edges=edges)


def _parse_edge(
    raw: object, where: str, known: set[str], steps: Steps, warnings: list[str]
) -> tuple[str, str, TransformationStep]:
    """The edge of ``raw``, one that decoding did not turn into a triple, or
    one with an unknown end."""
    raw = _object(raw, where)
    _unknown_keys(raw, _EDGE_KEYS, where, warnings)
    src = _require(raw, "from", str, where)
    dst = _require(raw, "to", str, where)
    for end, key in ((src, "from"), (dst, "to")):
        if end not in known:
            raise BundleError(f"{where}.{key}: unknown node {end!r}")
    step = raw.get("step")
    if not isinstance(step, TransformationStep):
        if type(step) is not tuple:  # a step decoded as an edge is an object too
            _require(raw, "step", dict, where)
        step = _parse_step(step, f"{where}.step", steps, warnings)
    return src, dst, step


def _node_resolver(tree: SearchTree | None) -> Resolve | None:
    """Node id -> root path for ``tree``; the BFS runs on the first call."""
    if tree is None:
        return None
    resolver: PathResolver | None = None

    def resolve(node: str) -> tuple[TransformationStep, ...]:
        nonlocal resolver
        if resolver is None:
            resolver = PathResolver(tree)
        return resolver.sequence(node)

    return resolve


_ID = itemgetter("id")
_OBJECTIVES = itemgetter("objectives")


def _valid_solutions(raws: list, resolve: Resolve | None) -> list[ArchitectureSolution] | None:
    """The solutions of ``raws`` if every one of them passes each check of
    ``_parse_solution`` and warns of nothing, else None.

    Each check runs over the whole list at once, by type sets and ``map``:
    decoding made every valid step of a sequence the shared step, so no
    element of a sequence or of an objective list is visited in Python. Only
    when a check fails does ``_parse_solution`` go through the solutions
    again, to name the first bad one.
    """
    # Three known keys, two of them id and objectives: the third is either
    # the sequence or the node.
    if not (
        {*map(type, raws)} <= {dict}
        and {*map(len, raws)} <= {3}
        and all(map(_SOLUTION_KEYS.issuperset, raws))
    ):
        return None
    try:
        ids = list(map(_ID, raws))
        objectives = list(map(_OBJECTIVES, raws))
    except KeyError:
        return None
    sequences = list(map(dict.get, raws, repeat("sequence")))
    nodes = list(map(dict.get, raws, repeat("node")))
    if not (
        {*map(type, ids)} <= {str}
        and {*map(type, objectives)} <= {list}
        and {*map(type, chain.from_iterable(objectives))} <= {int, float}
        and {*map(type, sequences)} <= {list, NoneType}
        and {*map(type, nodes)} <= {str, NoneType}
        and not any(map(is_, sequences, nodes))  # a null sequence or node
        and {*map(type, chain.from_iterable(filter(None, sequences)))} <= {TransformationStep}
    ):
        return None
    try:
        "".join(ids).encode("utf-8")
        if not all(map(math.isfinite, chain.from_iterable(objectives))):
            return None
    except (UnicodeEncodeError, OverflowError):  # a lone surrogate; an int past float range
        return None
    if nodes.count(None) < len(nodes):
        if resolve is None:
            return None
        try:
            sequences = [resolve(n) if s is None else s for s, n in zip(sequences, nodes)]
        except (UnknownNodeError, UnreachableNodeError):
            return None
    return list(map(ArchitectureSolution, ids, objectives, sequences))


def _parse_solution(
    raw: object, where: str, resolve: Resolve | None, steps: Steps, warnings: list[str]
) -> ArchitectureSolution:
    """The solution of ``raw``, checked field by field in document order, so
    that the first bad field fails, or a stray one warns, at its JSON path."""
    raw = _object(raw, where)
    _unknown_keys(raw, _SOLUTION_KEYS, where, warnings)
    sol_id = _text(raw, "id", where)
    objectives = _require(raw, "objectives", list, where)
    for k, v in enumerate(objectives):
        if not _is_finite_number(v):
            raise BundleError(f"{where}.objectives[{k}]: must be a finite number")

    has_sequence = "sequence" in raw
    has_node = "node" in raw
    if has_sequence and has_node:
        raise BundleError(f"{where}: solution {sol_id!r} has both 'sequence' and 'node'")
    if has_node:
        node = _require(raw, "node", str, where)
        if resolve is None:
            raise BundleError(
                f"{where}.node: solution {sol_id!r} references a node but the bundle has no tree"
            )
        try:
            sequence = resolve(node)
        except UnknownNodeError:
            raise BundleError(f"{where}.node: unknown node {node!r}") from None
        except UnreachableNodeError as exc:
            raise BundleError(f"{where}.node: {exc}") from None
    elif has_sequence:
        sequence = _require(raw, "sequence", list, where)
        for k, raw_step in enumerate(sequence):
            if not isinstance(raw_step, TransformationStep):
                sequence[k] = _parse_step(raw_step, f"{where}.sequence[{k}]", steps, warnings)
    else:
        raise BundleError(f"{where}: solution {sol_id!r} needs either 'sequence' or 'node'")
    return ArchitectureSolution(sol_id, objectives, sequence)


def _is_finite_number(value: object) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _parse_step(raw: object, where: str, steps: Steps, warnings: list[str]) -> TransformationStep:
    """The step of ``raw``, a step that decoding did not intern: one with a
    stray field, which warns, or a malformed one, which fails."""
    raw = _object(raw, where)
    _unknown_keys(raw, _STEP_KEYS, where, warnings)
    name = _require(raw, "name", str, where)
    args = _string_list(raw.get("args", []), f"{where}.args")
    try:
        step = TransformationStep(name, args)
    except ValueError as exc:
        raise BundleError(f"{where}: {exc}") from None
    return steps.setdefault((step.name, step.args), step)


def _require(obj: dict, key: str, typ: type, where: str):
    if key not in obj:
        raise BundleError(f"{where}.{key}: missing required field")
    value = obj[key]
    if not isinstance(value, typ):
        raise BundleError(f"{where}.{key}: expected {typ.__name__}")
    return value


def _text(obj: dict, key: str, where: str) -> str:
    """A required string that reports print or write: it must encode as UTF-8.

    JSON admits a lone surrogate escape such as ``"\\ud800"``, which no
    UTF-8 output can carry.
    """
    value = _require(obj, key, str, where)
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise BundleError(f"{where}.{key}: contains a lone surrogate") from None
    return value


def _string_list(raw: object, where: str) -> list[str]:
    if not isinstance(raw, list) or not {*map(type, raw)} <= {str}:
        raise BundleError(f"{where}: must be a list of strings")
    return list(raw)


def _unknown_keys(obj: dict, known: set[str], where: str, warnings: list[str]) -> None:
    # The subset test keeps the usual no-unknown-key case out of a Python-level loop.
    if not obj.keys() <= known:
        warnings.extend(f"ignored unknown field {where}.{k}" for k in obj if k not in known)


def write_bundle(bundle: AnalysisBundle) -> str:
    """Serialize a bundle back to the JSON input format (explicit sequences)."""
    doc: dict = {"name": bundle.name}
    if bundle.tree is not None:
        doc["tree"] = {
            "root": bundle.tree.root_id,
            "nodes": list(bundle.tree.nodes),
            "edges": [
                {"from": p, "to": c, "step": {"name": s.name, "args": list(s.args)}}
                for p, c, s in bundle.tree.edges
            ],
        }
    doc["sets"] = [
        {
            "label": s.label,
            "objective_names": list(s.objective_names),
            "solutions": [
                {
                    "id": sol.id,
                    "objectives": list(sol.objectives),
                    "sequence": [
                        {"name": st.name, "args": list(st.args)} for st in sol.sequence
                    ],
                }
                for sol in s.solutions
            ],
        }
        for s in bundle.sets
    ]
    if bundle.provenance:
        doc["provenance"] = bundle.provenance
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def write_report(
    results: list[IndicatorResult],
    correlation: CorrelationStats | None,
    sets: Sequence[SolutionSet] = (),
    projection: Projection2D | None = None,
    format: str = "json",
) -> dict[str, str]:
    """Serialize indicator results, and the map of ``sets`` if any, to named documents.

    Returns a mapping from logical document name to text: {"report": json}
    for JSON, or {"summary": csv, "points": csv} for CSV.
    """
    if not results:
        raise ValueError("results must be non-empty")
    placed = _set_points(sets, projection)
    if format == "json":
        return {"report": _json_report(results, correlation, placed, projection)}
    if format == "csv":
        return _csv_report(results, placed)
    raise ValueError(f"unknown format {format!r}")


def _set_points(
    sets: Sequence[SolutionSet], projection: Projection2D | None
) -> list[tuple[str, list[tuple[str, float, float]]]]:
    """Each set's label and rows ``(id, x, y)``; solution ``i`` of all sets has point ``i``.

    A map is keyed by set label, so two sets with one label are refused.
    """
    if projection is None:
        return []
    total = sum(len(s) for s in sets)
    if len(projection.coords) != total:
        raise ValueError(f"{len(projection.coords)} projection points for {total} solutions")
    labels: set[str] = set()
    for s in sets:
        if s.label in labels:
            raise ValueError(f"set label {s.label!r} is repeated")
        labels.add(s.label)
    points = iter(projection.coords)
    return [(s.label, [(sol.id, *next(points)) for sol in s.solutions]) for s in sets]


def _json_report(
    results: list[IndicatorResult],
    correlation: CorrelationStats | None,
    placed: list[tuple[str, list[tuple[str, float, float]]]],
    projection: Projection2D | None,
) -> str:
    doc: dict = {
        "sets": [
            {
                "label": r.set_label,
                "n": r.n,
                "o": r.o,
                "ms": r.ms,
                "mas": r.mas,
                "max_d": r.max_d,
                "L_pad": r.l_pad,
                "diagnostics": list(r.diagnostics),
            }
            for r in results
        ]
    }
    if correlation is None:
        doc["correlation"] = {"computable": False}
    else:
        doc["correlation"] = {
            "computable": correlation.pearson is not None or correlation.spearman is not None,
            "n": correlation.n,
            "pearson": correlation.pearson,
            "spearman": correlation.spearman,
        }
    # Each map's points are written apart, in the place of "points": [].
    # json.dumps escapes every quote inside a string, so that text is only
    # ever a key named points with an empty list.
    points = {label: _points_json(rows) for label, rows in placed}
    if placed:
        doc["projections"] = {
            label: {
                "stress": projection.stress,
                "eigenvalue_share": projection.eigenvalue_share,
                "points": [],
            }
            for label in points
        }
    pieces = json.dumps(doc, indent=2).split('"points": []')
    return "".join(chain.from_iterable(zip(pieces, points.values()))) + pieces[-1] + "\n"


def _points_json(rows: list[tuple[str, float, float]]) -> str:
    """The ``"points"`` member of a map as ``json.dumps(indent=2)`` writes it in a report.

    One f-string per point: string ids and finite float coordinates are
    written as the encoder writes them, without its pure-Python indenting;
    anything else goes through ``json.dumps``.
    """

    def number(v: object) -> str:
        return float.__repr__(v) if v.__class__ is float and math.isfinite(v) else json.dumps(v)

    items = ",\n        ".join(
        f'{{\n          "id": {_ascii(i) if i.__class__ is str else json.dumps(i)},\n'
        f'          "x": {number(x)},\n          "y": {number(y)}\n        }}'
        for i, x, y in rows
    )
    return f'"points": [\n        {items}\n      ]' if rows else '"points": []'


def _csv_report(
    results: list[IndicatorResult], placed: list[tuple[str, list[tuple[str, float, float]]]]
) -> dict[str, str]:
    import csv

    summary = _stdio.StringIO()
    writer = csv.writer(summary, lineterminator="\n")
    writer.writerow(["label", "n", "o", "ms", "mas", "max_d", "L_pad"])
    for r in results:
        writer.writerow([r.set_label, r.n, r.o, repr(r.ms), repr(r.mas), repr(r.max_d), r.l_pad])

    points = _stdio.StringIO()
    writer = csv.writer(points, lineterminator="\n")
    writer.writerow(["id", "label", "x", "y"])
    for label, rows in placed:
        for i, x, y in rows:
            writer.writerow([i, label, repr(x), repr(y)])
    return {"summary": summary.getvalue(), "points": points.getvalue()}


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


_SVG_WIDTH = 640
_SVG_HEIGHT = 520


def emit_scatter_svg(
    sets: Sequence[SolutionSet], projection: Projection2D, results: list[IndicatorResult]
) -> str:
    """Standalone SVG scatter: one marker per solution, colored by set label.

    Solution ``i`` of ``sets``, in order, sits at point ``i`` of ``projection``.
    Each set gets its minimum enclosing circle and a legend entry; the caption
    carries the set's MAS/MS from its row in ``results``, if any. The MDS axes
    carry no semantic meaning and are left unlabeled.
    """
    placed = _set_points(sets, projection)
    if not projection.coords:
        raise ValueError("at least one projection point is required")

    xs = [x for x, _ in projection.coords]
    ys = [y for _, y in projection.coords]
    x_min, y_max = min(xs), max(ys)
    span = max(max(xs) - x_min, y_max - min(ys)) or 1.0
    margin = 50.0
    plot = min(_SVG_WIDTH, _SVG_HEIGHT) - 2 * margin
    scale = plot / span

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = margin + (x - x_min) * scale
        py = margin + (y_max - y) * scale  # flip: SVG y grows downward
        return px, py

    by_label: dict[str, str] = {}
    for label, _ in placed:
        by_label[label] = _PALETTE[len(by_label) % len(_PALETTE)]
    indicator_by_label = {r.set_label: r for r in results}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
    ]
    for label, rows in placed:
        color = by_label[label]
        px_points = [to_px(x, y) for _, x, y in rows]
        cx, cy, r = _min_enclosing_circle(px_points)
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r + 6:.2f}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" stroke-dasharray="6 3" opacity="0.8"/>'
        )
        for px, py in px_points:
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.2" fill="{color}" opacity="0.75"/>'
            )

    legend_y = 22.0
    for label, color in by_label.items():
        ind = indicator_by_label.get(label)
        caption = label
        if ind is not None:
            caption += f"  MAS={ind.mas:.3f}  MS={ind.ms:.3f}"
        parts.append(
            f'<circle cx="{_SVG_WIDTH - 230}" cy="{legend_y - 4:.1f}" r="5" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_SVG_WIDTH - 218}" y="{legend_y:.1f}" font-family="sans-serif" '
            f'font-size="12">{_xml_escape(caption)}</text>'
        )
        legend_y += 18.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Characters outside XML 1.0's Char production, which no escape can carry.
_NOT_XML_CHARS = dict.fromkeys(
    [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd"
)


def _xml_escape(text: str) -> str:
    """``text`` as XML character data; a character XML 1.0 forbids becomes U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text.translate(_NOT_XML_CHARS)


def _min_enclosing_circle(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Welzl's algorithm over the points in a seeded random order.

    In input order it can take cubic time, e.g. on points that spiral
    outwards; a random order makes the expected time linear.
    """
    import random

    pts = list(dict.fromkeys(points))
    if not pts:
        return 0.0, 0.0, 0.0
    random.Random(0).shuffle(pts)
    circle: tuple[float, float, float] | None = None
    for i, p in enumerate(pts):
        if circle is None or not _in_circle(circle, p):
            circle = (p[0], p[1], 0.0)
            for j, q in enumerate(pts[: i + 1]):
                if not _in_circle(circle, q):
                    circle = _circle_two(p, q)
                    for r in pts[: j + 1]:
                        if not _in_circle(circle, r):
                            circle = _circumcircle(p, q, r)
    assert circle is not None
    return circle


def _in_circle(circle: tuple[float, float, float], p: tuple[float, float]) -> bool:
    cx, cy, r = circle
    return math.hypot(p[0] - cx, p[1] - cy) <= r + 1e-9


def _circle_two(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float, float]:
    cx = (a[0] + b[0]) / 2
    cy = (a[1] + b[1]) / 2
    return cx, cy, math.hypot(a[0] - b[0], a[1] - b[1]) / 2


def _circumcircle(a, b, c) -> tuple[float, float, float]:
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12:
        # Collinear: fall back to the widest two-point circle.
        circles = [_circle_two(a, b), _circle_two(a, c), _circle_two(b, c)]
        return max(circles, key=lambda t: t[2])
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    return ux, uy, math.hypot(ax - ux, ay - uy)
