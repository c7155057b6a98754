"""Core domain types shared by every other module."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from ._lazy import np

# Rows per block wherever the numeric layers sweep an n x n matrix: a
# temporary then holds _ROW_BLOCK x n entries, not n x n.
_ROW_BLOCK = 64


def _row_blocks(n: int):
    """Consecutive slices of at most ``_ROW_BLOCK`` rows that cover ``range(n)``."""
    return (slice(start, min(start + _ROW_BLOCK, n)) for start in range(0, n, _ROW_BLOCK))


@dataclass(frozen=True)
class TransformationStep:
    """One refactoring: a name plus the ordered arguments it targets."""

    name: str
    args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("transformation name must be non-empty")
        object.__setattr__(self, "args", tuple(self.args))
        if any(not a for a in self.args):
            raise ValueError(f"transformation {self.name!r} has an empty argument token")


@dataclass(frozen=True)
class ArchitectureSolution:
    """A design alternative: objective values plus the refactoring path from the root."""

    id: str
    objectives: tuple[float, ...]
    sequence: tuple[TransformationStep, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "objectives", tuple(float(v) for v in self.objectives))
        object.__setattr__(self, "sequence", tuple(self.sequence))


@dataclass(frozen=True)
class SolutionSet:
    """A labeled collection of solutions produced by one optimization configuration."""

    label: str
    objective_names: tuple[str, ...]
    solutions: tuple[ArchitectureSolution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective_names", tuple(self.objective_names))
        object.__setattr__(self, "solutions", tuple(self.solutions))

    def __len__(self) -> int:
        return len(self.solutions)


@dataclass(frozen=True)
class SearchTree:
    """Search tree (or DAG) rooted at the initial architecture.

    ``nodes`` holds the node ids in the order given, each once. ``edges``
    holds ``(parent_id, child_id, step)`` triples.
    """

    nodes: tuple[str, ...]
    root_id: str
    edges: tuple[tuple[str, str, TransformationStep], ...]

    def __post_init__(self) -> None:
        known = dict.fromkeys(self.nodes)
        object.__setattr__(self, "nodes", tuple(known))
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.root_id not in known:
            raise ValueError(f"root id {self.root_id!r} is not a node")
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


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric matrix of architectural distances between a set's solutions.

    ``values`` is a read-only float64 array. Any other input is copied into
    one; a read-only float64 array is kept as given. ``l_pad`` bounds every
    entry and is the default MAS scale.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    l_pad: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        values = self.values
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and not values.flags.writeable
        ):
            try:
                values = np.array(values, dtype=np.float64)
            except ValueError:
                raise ValueError("distance matrix shape does not match ids") from None
            values.flags.writeable = False
        n = len(self.ids)
        if n == 0 and values.size == 0:
            values = values.reshape(0, 0)
        object.__setattr__(self, "values", values)
        if values.shape != (n, n):
            raise ValueError("distance matrix shape does not match ids")
        if _is_valid(values, self.l_pad):
            return
        # Report the first violation in row-major order over the upper
        # triangle, diagonal included; NaN fails every check.
        in_range = (values >= 0.0) & (values <= self.l_pad + 1e-9)
        bad = np.triu((values != values.T) | ~in_range, 1)
        np.fill_diagonal(bad, np.diagonal(values) != 0.0)
        i, j = (int(k) for k in np.argwhere(bad)[0])
        if i == j:
            raise ValueError(f"nonzero diagonal at {self.ids[i]!r}")
        if values[i, j] != values[j, i]:
            raise ValueError(f"asymmetry at ({self.ids[i]!r}, {self.ids[j]!r})")
        raise ValueError(f"distance out of [0, L] at ({self.ids[i]!r}, {self.ids[j]!r})")

    def __len__(self) -> int:
        return len(self.ids)


def _is_valid(values: np.ndarray, l_pad: int) -> bool:
    """Whether a square matrix passes every ``DistanceMatrix`` check, by reductions.

    NaN makes the minimum NaN, which fails the range test. Symmetry is
    compared one block of rows against the same block of columns at a time.
    """
    if values.size == 0:
        return True
    if not (values.min() >= 0.0 and values.max() <= l_pad + 1e-9):
        return False
    if np.diagonal(values).any():
        return False
    blocks = _row_blocks(len(values))
    return all(np.array_equal(values[rows], values[:, rows].T) for rows in blocks)


@dataclass(frozen=True)
class IndicatorResult:
    """Spread values for one solution set."""

    set_label: str
    ms: float
    mas: float
    n: int
    max_d: float
    o: int
    l_pad: int = 0
    diagnostics: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class CorrelationStats:
    """Descriptive correlation between the objective-space and architectural spreads.

    A coefficient is ``None`` when it is not computable.
    """

    n: int
    pearson: float | None
    spearman: float | None


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
