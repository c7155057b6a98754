"""Architectural distance between refactoring sequences.

Each aligned position contributes at most 1: a 0/1 name mismatch weighted by
``w_pred`` plus a length-normalized Levenshtein over the argument tokens
weighted by ``w_args``. Sequences of different lengths are tail-padded with a
padding step (``None``) that is at distance 1 from every real step.

Matrices are computed by a per-position kernel: every distinct step gets an
integer id (padding is 0) and each solution becomes a row of ids. Each
position has a small table of step distances over the steps that occur there,
and the matrix is the position-by-position sum of gathers from those tables,
so memory grows with the sum of their squared sizes, not with the square of
all distinct steps. The tables apply the same floating-point operations as
``step_distance`` and the sum runs in position order from 0.0, so every entry
equals ``sequence_distance`` of its pair exactly. The tables compare only
step names and argument tokens for equality, so they number those
themselves.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Iterator, Sequence

from ._lazy import np
from .model import ArchitectureSolution, SolutionSet, TransformationStep, _Record

# Rows per block wherever the numeric layers sweep an n x n matrix: a
# temporary then holds _ROW_BLOCK x n entries, not n x n.
_ROW_BLOCK = 64


def _row_blocks(n: int):
    """Consecutive slices of at most ``_ROW_BLOCK`` rows that cover ``range(n)``."""
    return (slice(start, min(start + _ROW_BLOCK, n)) for start in range(0, n, _ROW_BLOCK))


class DistanceWeights(_Record):
    """Channel weights; they must sum to 1 so a position contributes at most 1."""

    __slots__ = __match_args__ = ("w_pred", "w_args")
    w_pred: float
    w_args: float

    def __init__(self, w_pred: float = 0.5, w_args: float = 0.5) -> None:
        self._fill(w_pred, w_args)
        if not (0.0 <= w_pred <= 1.0 and 0.0 <= w_args <= 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if abs(w_pred + w_args - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


class DistanceMatrix(_Record):
    """Symmetric matrix of architectural distances between solutions.

    The rows are one set's solutions, or, in the joint matrix, one solution
    per distinct sequence of all sets. ``values`` is a read-only float64
    array. Any other input is copied into one; a read-only float64 array is
    kept as given. ``l_pad`` bounds every entry and is the default MAS scale.
    """

    __slots__ = __match_args__ = ("ids", "values", "l_pad")
    ids: tuple[str, ...]
    values: np.ndarray
    l_pad: int

    def __init__(self, ids: tuple[str, ...], values: np.ndarray, l_pad: int) -> None:
        ids = tuple(ids)
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
        n = len(ids)
        if n == 0 and values.size == 0:
            values = values.reshape(0, 0)
        self._fill(ids, values, l_pad)
        if values.shape != (n, n):
            raise ValueError("distance matrix shape does not match ids")
        if _is_valid(values, l_pad):
            return
        # Report the first violation in row-major order over the upper
        # triangle, diagonal included; NaN fails every check.
        in_range = (values >= 0.0) & (values <= l_pad + 1e-9)
        bad = np.triu((values != values.T) | ~in_range, 1)
        np.fill_diagonal(bad, np.diagonal(values) != 0.0)
        i, j = (int(k) for k in np.argwhere(bad)[0])
        if i == j:
            raise ValueError(f"nonzero diagonal at {ids[i]!r}")
        if values[i, j] != values[j, i]:
            raise ValueError(f"asymmetry at ({ids[i]!r}, {ids[j]!r})")
        raise ValueError(f"distance out of [0, L] at ({ids[i]!r}, {ids[j]!r})")

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


def _levenshtein(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _simargs(a: tuple[str, ...], b: tuple[str, ...]) -> float:
    longer = max(len(a), len(b))
    if longer == 0:
        return 0.0
    return _levenshtein(a, b) / longer


def step_distance(
    a: TransformationStep | None, b: TransformationStep | None, w: DistanceWeights
) -> float:
    """Distance between two aligned steps, in [0, 1]; ``None`` is the padding step."""
    if a is None or b is None:
        return 0.0 if a is b else 1.0
    simpred = 0.0 if a.name == b.name else 1.0
    return simpred * w.w_pred + _simargs(a.args, b.args) * w.w_args


def sequence_distance(
    a: Sequence[TransformationStep], b: Sequence[TransformationStep], w: DistanceWeights
) -> float:
    """Sum of per-position step distances after tail-padding to equal length.

    Result lies in [0, max(|a|, |b|)]; two empty sequences are at distance 0.
    """
    total = 0.0
    for sa, sb in zip_longest(a, b):
        total += step_distance(sa, sb, w)
    return total


def _step_ids(
    solutions: Iterable[ArchitectureSolution],
) -> tuple[np.ndarray, list[TransformationStep]]:
    """Solutions as an ``(n, L_pad)`` array of step ids, tail-padded with 0.

    Also returns the distinct steps in first-seen order; step ``i`` of that
    list has id ``i + 1``. Equal steps get the same id.
    """
    step_id: dict[TransformationStep, int] = {}
    rows = [
        [step_id.setdefault(step, len(step_id) + 1) for step in sol.sequence] for sol in solutions
    ]
    ids = np.zeros((len(rows), max(map(len, rows), default=0)), dtype=np.intp)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    return ids, list(step_id)


def _simargs_table(args: Sequence[tuple[int, ...]]) -> np.ndarray:
    """``_simargs`` of every two of ``args``, by a batched Wagner–Fischer DP.

    The tuples are padded with -1, which is no symbol, to the longest arity.
    All pairs whose first tuple has length ``la`` share one DP, run row by
    row; a row's insertions are one running minimum. Pair ``(a, b)`` reads
    its Levenshtein distance at ``D[la, lb]`` and divides it by the longer
    length, as ``_simargs`` does.
    """
    lengths = np.array([len(t) for t in args], dtype=np.intp)
    width = int(lengths.max())
    padded = np.full((len(args), width), -1, dtype=np.int64)
    for i, t in enumerate(args):
        padded[i, : len(t)] = t
    cols = np.arange(width + 1)
    lev = np.empty((len(args), len(args)), dtype=np.intp)
    for la in np.flatnonzero(np.bincount(lengths)):  # not np.unique: it imports numpy.ma
        rows = np.flatnonzero(lengths == la)
        d = np.broadcast_to(cols, (len(rows), len(args), width + 1))
        for i in range(la):
            cur = np.empty_like(d)
            cur[..., 0] = i + 1
            # D[i, j] before insertions: a deletion or a (mis)match.
            subst = padded[rows, None, i, None] != padded[None, :, :]
            np.minimum(d[..., 1:] + 1, d[..., :-1] + subst, out=cur[..., 1:])
            cur -= cols
            d = np.minimum.accumulate(cur, axis=-1) + cols
        lev[rows] = d[:, np.arange(len(args)), lengths]
    longer = np.maximum(lengths[:, None], lengths[None, :])
    return np.divide(lev, longer, out=np.zeros(lev.shape), where=longer > 0)


def _column_tables(
    ids: np.ndarray, steps: Sequence[TransformationStep], w: DistanceWeights
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per position: each row's index into a table, and that table of step distances.

    A position's table covers only the distinct steps at that position, with
    padding first when present; every position holds at least one real step.
    Names, argument tuples and argument tokens are numbered in first-seen
    order, so equal ints mean equal strings. Each entry applies the
    operations of ``step_distance``, so it is bit-identical to it.
    """
    name_id: dict[str, int] = {}
    arg_id: dict[tuple[str, ...], int] = {}
    token_id: dict[str, int] = {}
    names = np.array([-1] + [name_id.setdefault(s.name, len(name_id)) for s in steps])
    step_args = np.array([-1] + [arg_id.setdefault(s.args, len(arg_id)) for s in steps])
    arg_tuples = [tuple(token_id.setdefault(t, len(token_id)) for t in args) for args in arg_id]
    out = []
    for column in ids.T:
        present, index = np.unique(column, return_inverse=True)
        pad = int(present[0] == 0)
        real = present[pad:]
        args, arg_index = np.unique(step_args[real], return_inverse=True)
        simargs = _simargs_table([arg_tuples[a] for a in args])
        simargs *= w.w_args
        table = np.ones((len(present), len(present)))
        if pad:
            table[0, 0] = 0.0
        inner = table[pad:, pad:]
        np.multiply(names[real, None] != names[None, real], w.w_pred, out=inner)
        inner += simargs.take(arg_index, axis=0).take(arg_index, axis=1)
        out.append((index, table))
    return out


def _kernel(
    columns: Sequence[tuple[np.ndarray, np.ndarray]], rows: slice, blk: slice, out: np.ndarray
) -> None:
    """Rows ``blk`` of the pairwise sums of aligned step distances among ``rows``.

    ``out`` is a ``(len(blk), n)`` array. Each position gathers its table by
    the block's rows, then by all columns, and adds that into ``out``, so
    every entry is summed in position order from 0.0. Positions past the end
    of both sequences add padding/padding = +0.0, which leaves a non-negative sum
    unchanged.
    """
    out.fill(0.0)
    for index, table in columns:
        c = index[rows]
        out += table.take(c[blk], axis=0).take(c, axis=1)


def _matrix(columns: Sequence[tuple[np.ndarray, np.ndarray]], rows: slice, n: int) -> np.ndarray:
    out = np.empty((n, n))
    for blk in _row_blocks(n):
        _kernel(columns, rows, blk, out[blk])
    out.flags.writeable = False
    return out


def _eccentricities(
    columns: Sequence[tuple[np.ndarray, np.ndarray]], rows: slice, n: int
) -> np.ndarray:
    """Row maxima of ``_matrix``, one block of rows at a time."""
    buffer = np.empty((min(n, _ROW_BLOCK), n))
    ecc = np.empty(n)
    for blk in _row_blocks(n):
        out = buffer[: blk.stop - blk.start]
        _kernel(columns, rows, blk, out)
        out.max(axis=1, out=ecc[blk])
    return ecc


def padded_length(solution_set: SolutionSet) -> int:
    """The longest sequence in a set: its ``l_pad``, which bounds every distance in it."""
    return max((len(sol.sequence) for sol in solution_set.solutions), default=0)


def _set_spans(sets: Sequence[SolutionSet]) -> Iterator[tuple[SolutionSet, slice, int]]:
    """Each set with its rows among all sets' solutions in order, and its ``l_pad``."""
    start = 0
    for s in sets:
        yield s, slice(start, start + len(s)), padded_length(s)
        start += len(s)


def _within_sets(sets: Sequence[SolutionSet], w: DistanceWeights, reduce) -> list:
    """``reduce(columns, rows, n)`` for each set, with one table per position for all sets."""
    ids, steps = _step_ids(sol for s in sets for sol in s.solutions)
    columns = _column_tables(ids, steps, w)
    return [reduce(columns[:l_pad], rows, len(s)) for s, rows, l_pad in _set_spans(sets)]


def distance_matrix(solution_set: SolutionSet, w: DistanceWeights) -> DistanceMatrix:
    """Full pairwise distance matrix for one set.

    ``l_pad`` is the longest sequence in the set and the default MAS scale.
    """
    (values,) = _within_sets([solution_set], w, _matrix)
    ids = tuple(sol.id for sol in solution_set.solutions)
    return DistanceMatrix(ids, values, padded_length(solution_set))


def within_set_eccentricities(sets: Sequence[SolutionSet], w: DistanceWeights) -> list[np.ndarray]:
    """Each set's eccentricities: every solution's largest distance within its set.

    They are the row maxima of ``distance_matrix`` of the set, taken block by
    block, so no set's n x n matrix is built.
    """
    return _within_sets(sets, w, _eccentricities)


def distinct_sequences(
    solutions: Sequence[ArchitectureSolution],
) -> tuple[list[ArchitectureSolution], np.ndarray]:
    """The first solution with each distinct sequence, in order, and each solution's row among them.

    Solutions with equal sequences are at distance 0 from each other and at
    equal distances from every other solution, so a matrix over the returned
    representatives, gathered through the rows, is the matrix over all of
    ``solutions``.
    """
    first: dict[tuple[TransformationStep, ...], tuple[int, ArchitectureSolution]] = {}
    rows = [first.setdefault(sol.sequence, (len(first), sol))[0] for sol in solutions]
    return [sol for _, sol in first.values()], np.array(rows, dtype=np.intp)


def gathered_eccentricities(
    joint: DistanceMatrix, index: np.ndarray, sets: Sequence[SolutionSet]
) -> list[np.ndarray]:
    """Each set's eccentricities, from a matrix over the distinct sequences of all sets.

    Solution ``i`` of all sets in order has row ``index[i]`` of ``joint``. A
    pair's distance does not depend on the set it is computed in, so a set's
    eccentricities are the row maxima of ``joint`` gathered through its
    solutions' rows, taken one block of rows at a time.
    """
    out = []
    for _, rows, _ in _set_spans(sets):
        own = index[rows]
        ecc = np.empty(len(own))
        for blk in _row_blocks(len(own)):
            joint.values[np.ix_(own[blk], own)].max(axis=1, out=ecc[blk])
        out.append(ecc)
    return out
