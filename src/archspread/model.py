"""Domain types: solution sets, the refactoring steps behind them and the search tree."""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter


class _Record:
    """Base of the frozen value types.

    A subclass names its fields, in ``__init__`` order, in ``__match_args__``
    and in ``__slots__``, and sets every slot once in ``__init__`` by
    ``_fill``.
    ``==`` and ``hash`` compare the fields named by ``_compared`` (all of them
    unless the class names fewer), and only between instances of one class.
    Copying and unpickling call the class with the fields again, since a
    frozen instance cannot be filled in after ``__new__``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._key = attrgetter(*getattr(cls, "_compared", cls.__match_args__))

    def _fill(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


class TransformationStep(_Record):
    """One refactoring: a name plus the ordered arguments it targets."""

    __slots__ = __match_args__ = ("name", "args")
    name: str
    args: tuple[str, ...]

    def __init__(self, name: str, args: tuple[str, ...] = ()) -> None:
        if not name.strip():
            raise ValueError("transformation name must be non-empty")
        args = tuple(args)
        if any(not a for a in args):
            raise ValueError(f"transformation {name!r} has an empty argument token")
        self._fill(name, args)


class ArchitectureSolution(_Record):
    """A design alternative: objective values plus the refactoring path from the root."""

    __slots__ = __match_args__ = ("id", "objectives", "sequence")
    id: str
    objectives: tuple[float, ...]
    sequence: tuple[TransformationStep, ...]

    def __init__(
        self, id: str, objectives: tuple[float, ...], sequence: tuple[TransformationStep, ...] = ()
    ) -> None:
        self._fill(id, tuple(map(float, objectives)), tuple(sequence))


class SolutionSet(_Record):
    """A labeled collection of solutions produced by one optimization configuration."""

    __slots__ = __match_args__ = ("label", "objective_names", "solutions")
    label: str
    objective_names: tuple[str, ...]
    solutions: tuple[ArchitectureSolution, ...]

    def __init__(
        self,
        label: str,
        objective_names: tuple[str, ...],
        solutions: tuple[ArchitectureSolution, ...],
    ) -> None:
        self._fill(label, tuple(objective_names), tuple(solutions))

    def __len__(self) -> int:
        return len(self.solutions)


class SearchTree(_Record):
    """Search tree (or DAG) rooted at the initial architecture.

    ``nodes`` holds the node ids in the order given, each once. ``edges``
    holds ``(parent_id, child_id, step)`` triples.
    """

    __slots__ = __match_args__ = ("nodes", "root_id", "edges")
    nodes: tuple[str, ...]
    root_id: str
    edges: tuple[tuple[str, str, TransformationStep], ...]

    def __init__(
        self,
        nodes: tuple[str, ...],
        root_id: str,
        edges: tuple[tuple[str, str, TransformationStep], ...],
    ) -> None:
        known = dict.fromkeys(nodes)
        self._fill(tuple(known), root_id, tuple(edges))
        if root_id not in known:
            raise ValueError(f"root id {root_id!r} is not a node")
        for parent, child, _ in self.edges:
            if parent not in known or child not in known:
                raise ValueError(f"edge ({parent!r}, {child!r}) references unknown node")

    def children(self) -> dict[str, list[tuple[str, TransformationStep]]]:
        """Adjacency map parent -> [(child, step)], children sorted by id.

        All edges are sorted once, stably, by child id: parallel edges keep
        the order they are listed in.
        """
        adj: dict[str, list[tuple[str, TransformationStep]]] = {n: [] for n in self.nodes}
        for parent, child, step in sorted(self.edges, key=itemgetter(1)):
            adj[parent].append((child, step))
        return adj


def validate_solution_set(solution_set: SolutionSet) -> list[str]:
    """Check a set against the domain invariants.

    Violations come back as human-readable descriptions naming the offending
    solution id and the rule; a valid set yields an empty list.
    """
    violations: list[str] = []
    if len(solution_set.solutions) == 0:
        violations.append(f"set {solution_set.label!r}: must contain at least one solution")
    seen: set[str] = set()
    for sol in solution_set.solutions:
        if sol.id in seen:
            violations.append(f"solution {sol.id!r}: duplicate id")
        seen.add(sol.id)
        if len(sol.objectives) != len(solution_set.objective_names):
            violations.append(
                f"solution {sol.id!r}: {len(sol.objectives)} objectives, "
                f"expected {len(solution_set.objective_names)}"
            )
        for k, v in enumerate(sol.objectives):
            if not math.isfinite(v):
                violations.append(f"solution {sol.id!r}: objective {k} is not finite")
    # MS is the root-sum-square of the objectives' ranges; each must be a float.
    ranges = []
    for k, name in enumerate(solution_set.objective_names):
        column = [sol.objectives[k] for sol in solution_set.solutions if k < len(sol.objectives)]
        column = [v for v in column if math.isfinite(v)]
        ranges.append(max(column) - min(column) if column else 0.0)
        if math.isinf(ranges[-1]):
            violations.append(
                f"set {solution_set.label!r}: objective {name!r} has a range past the largest float"
            )
    if math.isinf(math.hypot(*ranges)) and not any(map(math.isinf, ranges)):
        violations.append(f"set {solution_set.label!r}: MS is past the largest float")
    return violations
