"""Bundle ingestion and serialization.

The reports and the SVG are written by ``report``.
"""

from __future__ import annotations

import gc
import json
import math
from itertools import chain, repeat
from operator import is_, itemgetter
from types import NoneType

from .encoding import PathResolver, UnknownNodeError, UnreachableNodeError
from .model import ArchitectureSolution, SearchTree, SolutionSet, TransformationStep, _Record


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
    "node" (its sequence is then the shortest root path; the bundle's one
    ``PathResolver`` walks the tree on the first node reference). Equal
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
    paths = PathResolver(tree) if tree is not None else None

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
        solutions = _valid_solutions(raw_solutions, paths)
        if solutions is None:
            solutions = [
                _parse_solution(raw_sol, f"{where}.solutions[{j}]", paths, steps, warnings)
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
    """The decoded ``text``, each step in it decoded straight into what the
    bundle holds.

    An object whose keys are ``name`` and, optionally, ``args``, with a string
    name and a list of string args, becomes the shared ``TransformationStep``,
    so no step's dict outlives its own decoding. One that
    ``TransformationStep`` rejects stays a dict, for the parse pass to report
    at its JSON path. Every other object stays the dict it is.

    A step with exactly a ``name`` and an ``args`` list, already interned, is
    told by its number of keys and resolves with one lookup, whatever the
    order of its keys; every other object takes the general path, which
    gives the same result.
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
        elif n == 3:  # no step has three keys
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
    """``raw`` where an object is expected; a step that decoding interned
    counts as the object it was decoded from."""
    if isinstance(raw, TransformationStep):
        return {"name": raw.name, "args": list(raw.args)}
    if not isinstance(raw, dict):
        raise BundleError(f"{where}: {message}")
    return raw


def _parse_tree(raw: object, steps: Steps, warnings: list[str]) -> SearchTree:
    raw = _object(raw, "$.tree")
    _unknown_keys(raw, _TREE_KEYS, "$.tree", warnings)
    root = _require(raw, "root", str, "$.tree")
    nodes = _string_list(_require(raw, "nodes", list, "$.tree"), "$.tree.nodes")
    known = set(nodes)
    if len(known) < len(nodes):
        seen: set[str] = set()
        for i, node in enumerate(nodes):
            if node in seen:
                raise BundleError(f"$.tree.nodes[{i}]: duplicate node id {node!r}")
            seen.add(node)
    if root not in known:
        raise BundleError(f"$.tree.root: unknown node {root!r}")
    edges = _require(raw, "edges", list, "$.tree")
    for i, edge in enumerate(edges):
        # An edge of exactly "from", "to" and a "step" that decoding interned,
        # both ends known nodes, becomes its triple here; any other is parsed.
        if type(edge) is dict and len(edge) == 3:
            src, dst, step = edge.get("from"), edge.get("to"), edge.get("step")
            if type(step) is TransformationStep and type(src) is type(dst) is str:
                if src in known and dst in known:
                    edges[i] = src, dst, step
                    continue
        edges[i] = _parse_edge(edge, f"$.tree.edges[{i}]", known, steps, warnings)
    return SearchTree(nodes=nodes, root_id=root, edges=edges)


def _parse_edge(
    raw: object, where: str, known: set[str], steps: Steps, warnings: list[str]
) -> tuple[str, str, TransformationStep]:
    """The edge of ``raw``, checked field by field: a stray field warns, and
    the first bad one fails at its JSON path."""
    raw = _object(raw, where)
    _unknown_keys(raw, _EDGE_KEYS, where, warnings)
    src = _require(raw, "from", str, where)
    dst = _require(raw, "to", str, where)
    for end, key in ((src, "from"), (dst, "to")):
        if end not in known:
            raise BundleError(f"{where}.{key}: unknown node {end!r}")
    step = raw.get("step")
    if not isinstance(step, TransformationStep):
        _require(raw, "step", dict, where)
        step = _parse_step(step, f"{where}.step", steps, warnings)
    return src, dst, step


_ID = itemgetter("id")
_OBJECTIVES = itemgetter("objectives")


def _valid_solutions(raws: list, paths: PathResolver | None) -> list[ArchitectureSolution] | None:
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
        if paths is None:
            return None
        try:
            sequences = [paths.sequence(n) if s is None else s for s, n in zip(sequences, nodes)]
        except (UnknownNodeError, UnreachableNodeError):
            return None
    return list(map(ArchitectureSolution, ids, objectives, sequences))


def _parse_solution(
    raw: object, where: str, paths: PathResolver | None, steps: Steps, warnings: list[str]
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
        if paths is None:
            raise BundleError(
                f"{where}.node: solution {sol_id!r} references a node but the bundle has no tree"
            )
        try:
            sequence = paths.sequence(node)
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
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# perfbench/traced.py looks up the report writers in this module; looking
# them up loads ``report``. Remove this once its TARGETS name archspread.report.
def __getattr__(name: str):
    if name not in ("write_report", "emit_scatter_svg"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import report

    return getattr(report, name)
