"""Path extraction from search trees, and the token table of the MAS oracle.

``PathResolver`` and ``extract_sequence`` turn node references into
refactoring sequences. ``EncodingTable`` and ``build_encoding`` number step
names and argument tokens for ``synth.oracle_mas`` and
``perfbench/inputs.py``; the distance layer does not use them.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from .model import SearchTree, SolutionSet, TransformationStep, _Record


class UnknownNodeError(KeyError):
    """The queried node id is not part of the tree."""


class UnreachableNodeError(ValueError):
    """The queried node cannot be reached from the root."""


class EncodingTable(_Record):
    """Injective token -> dense symbol maps, one per space (names, args).

    Only ``synth.oracle_mas`` and ``perfbench/inputs.py`` use it, so the
    oracle shares no code with the distance layer, which compares the parsed
    steps themselves.
    """

    __slots__ = __match_args__ = ("name_symbols", "arg_symbols")
    name_symbols: dict[str, int]
    arg_symbols: dict[str, int]

    def __init__(self, name_symbols: dict[str, int], arg_symbols: dict[str, int]) -> None:
        self._fill(name_symbols, arg_symbols)


def build_encoding(sets: list[SolutionSet]) -> EncodingTable:
    """Assign dense symbols in first-occurrence order over the given sets.

    Names and arguments get separate symbol spaces, so the same token used as
    a name and as an argument receives one symbol in each. It builds the
    table for ``synth.oracle_mas``; no command calls it.
    """
    if not sets:
        raise ValueError("at least one solution set is required")
    name_symbols: dict[str, int] = {}
    arg_symbols: dict[str, int] = {}
    for solution_set in sets:
        for sol in solution_set.solutions:
            for step in sol.sequence:
                if step.name not in name_symbols:
                    name_symbols[step.name] = len(name_symbols)
                for a in step.args:
                    if a not in arg_symbols:
                        arg_symbols[a] = len(arg_symbols)
    return EncodingTable(name_symbols, arg_symbols)


class PathResolver:
    """Root paths of every node of one search tree, from a single BFS.

    The BFS runs on the first ``sequence`` query, so a resolver that is never
    queried never walks its tree. It visits children in id order and
    records, for each node, the parent and step through which it first
    reaches it. The queue then holds each level in the order of the nodes'
    smallest paths, so following those links back to the root gives the
    lexicographically smallest shortest node-id path; among parallel edges
    the first-listed one wins. Memory is O(V) and nothing recurses; build one
    resolver per tree and query it per node.
    """

    def __init__(self, tree: SearchTree) -> None:
        self._tree = tree

    @cached_property
    def _via(self) -> dict[str, tuple[str, TransformationStep] | None]:
        """Each reached node's parent and step on its chosen path; the root's is None."""
        tree = self._tree
        adj = tree.children()
        via: dict[str, tuple[str, TransformationStep] | None] = {tree.root_id: None}
        queue = deque([tree.root_id])
        while queue:
            node = queue.popleft()
            for child, step in adj[node]:
                if child not in via:
                    via[child] = (node, step)
                    queue.append(child)
        return via

    def sequence(self, node_id: str) -> tuple[TransformationStep, ...]:
        """Steps along the chosen root-to-node path, root-first."""
        if node_id not in self._via:
            # ``nodes`` is a tuple: scan it only on this error path.
            if node_id not in self._tree.nodes:
                raise UnknownNodeError(node_id)
            raise UnreachableNodeError(
                f"node {node_id!r} is unreachable from root {self._tree.root_id!r}"
            )
        steps = []
        link = self._via[node_id]
        while link is not None:
            parent, step = link
            steps.append(step)
            link = self._via[parent]
        steps.reverse()
        return tuple(steps)


def extract_sequence(tree: SearchTree, node_id: str) -> tuple[TransformationStep, ...]:
    """Steps along a shortest root-to-node path, root-first.

    Ties between equal-length paths in a DAG are broken by choosing the
    lexicographically smallest path by child-id order. This runs a BFS over
    the whole tree; to resolve many nodes, query one ``PathResolver``, which
    walks its tree once, on the first query.
    """
    return PathResolver(tree).sequence(node_id)
