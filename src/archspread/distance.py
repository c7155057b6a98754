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

from itertools import chain, count, zip_longest
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

    The rows are one set's solutions. ``values`` is a read-only float64
    array. Any other input is copied into one; a read-only float64 array is
    kept as given. ``l_pad`` bounds every entry and is the default MAS scale.
    ``==`` compares ids, ``l_pad`` and values; a matrix is not hashable.
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

    def __eq__(self, other: object) -> bool:
        # Fields compared as a tuple would ask an array for its truth.
        if other.__class__ is self.__class__:
            return (
                self.ids == other.ids
                and self.l_pad == other.l_pad
                and np.array_equal(self.values, other.values)
            )
        return NotImplemented


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

    Occurrences are told apart by object identity first, which hashes an
    int; only each distinct step object is hashed as a step, once. The
    ids then fill the array, row by row, in one assignment.
    """
    sequences = [sol.sequence for sol in solutions]
    steps = list(chain.from_iterable(sequences))
    # Each occurrence's position among all occurrences of its first same object.
    first: dict[int, int] = {}
    occurrence = np.fromiter(
        map(first.setdefault, map(id, steps), count()), dtype=np.intp, count=len(steps)
    )
    firsts = list(first.values())
    step_id: dict[TransformationStep, int] = {}
    code = np.zeros(len(steps), dtype=np.intp)
    code[firsts] = [step_id.setdefault(steps[k], len(step_id) + 1) for k in firsts]
    lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
    ids = np.zeros((len(sequences), lengths.max(initial=0)), dtype=np.intp)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = code[occurrence]
    return ids, list(step_id)


def _levenshtein_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Levenshtein distance of each row of ``a`` to each row of ``b``, by one batched DP.

    ``a`` is ``(r, la)`` and ``b`` is ``(c, lb)``. The DP runs row by row on
    ``lb + 1`` planes of ``r x c`` pairs. Plane ``j`` holds ``D[i, j] - i - j``:
    it keeps 0 in column 0, and the insertions of a row are a running minimum
    over the planes, taken by doubling in ``log2(lb + 1)`` steps.
    """
    d = np.zeros((b.shape[1] + 1, len(a), len(b)), dtype=np.intp)
    rows, columns = a.T[:, None, :, None], b.T[:, None, :]
    shifts = [2**k for k in range(b.shape[1].bit_length())]
    for token in rows:
        # D[i + 1, j] - i - 1 - j from a deletion, then from a (mis)match.
        cost = d[:-1] - (token == columns)
        cost -= 1
        np.minimum(d[1:], cost, out=d[1:])
        for shift in shifts:  # then insertions; overlapping views read the planes before the step
            np.minimum(d[shift:], d[:-shift], out=d[shift:])
    return d[-1] + (a.shape[1] + b.shape[1])


def _simargs_table(args: Sequence[tuple[int, ...]]) -> np.ndarray:
    """``_simargs`` of every two of ``args``, one batched DP per two arities.

    The tuples are grouped by arity. Each block of ``_ROW_BLOCK`` tuples of
    arity ``la`` meets all tuples of each arity ``lb >= la`` in one
    ``_levenshtein_block``, so a pair costs ``la * lb`` steps, as in
    ``_levenshtein``. Levenshtein distance is symmetric, so the other half
    is mirrored, and a tuple alone in its arity is at distance 0 from itself.
    Each distance is divided by the longer length, as ``_simargs`` does.
    """
    lengths = np.fromiter(map(len, args), dtype=np.intp, count=len(args))
    order = np.argsort(lengths, kind="stable")
    counts = np.bincount(lengths)
    stops = np.cumsum(counts)
    classes = []  # (its rows in arity order, its tuples), by arity
    for la in np.flatnonzero(counts):
        rows = slice(stops[la] - counts[la], stops[la])
        tuples = np.array([args[k] for k in order[rows]], dtype=np.int64)
        classes.append((rows, tuples.reshape(counts[la], la)))
    lev = np.zeros((len(args), len(args)), dtype=np.intp)  # rows and columns in arity order
    for x, (rows, a) in enumerate(classes):
        # A tuple alone in its arity is at distance 0 from itself, as lev holds.
        for cols, b in classes[x + (len(a) == 1) :]:
            for blk in _row_blocks(len(a)):
                lev[rows][blk, cols] = _levenshtein_block(a[blk], b)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    lev = np.maximum(lev, lev.T).take(rank, axis=0).take(rank, axis=1)
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


def _blocks(
    columns: Sequence[tuple[np.ndarray, np.ndarray]], rows: slice
) -> Iterator[tuple[slice, np.ndarray]]:
    """Each block of rows with its rows of the distances among ``rows``, from ``_kernel``.

    Every block is filled into one reused buffer, so it holds only until the
    next block is yielded.
    """
    n = rows.stop - rows.start
    buffer = np.empty((min(n, _ROW_BLOCK), n))
    for blk in _row_blocks(n):
        block = buffer[: blk.stop - blk.start]
        _kernel(columns, rows, blk, block)
        yield blk, block


def padded_length(solution_set: SolutionSet) -> int:
    """The longest sequence in a set: its ``l_pad``, which bounds every distance in it."""
    return max((len(sol.sequence) for sol in solution_set.solutions), default=0)


def _set_spans(sets: Sequence[SolutionSet]) -> Iterator[tuple[slice, int]]:
    """Each set's rows among all sets' solutions in order, and its ``l_pad``."""
    start = 0
    for s in sets:
        yield slice(start, start + len(s)), padded_length(s)
        start += len(s)


def distance_matrix(solution_set: SolutionSet, w: DistanceWeights) -> DistanceMatrix:
    """Full pairwise distance matrix for one set.

    ``l_pad`` is the longest sequence in the set and the default MAS scale.
    """
    ids, steps = _step_ids(solution_set.solutions)
    values = np.empty((len(ids), len(ids)))
    columns, rows = _column_tables(ids, steps, w), slice(0, len(ids))
    for blk in _row_blocks(len(ids)):
        _kernel(columns, rows, blk, values[blk])
    values.flags.writeable = False
    return DistanceMatrix(tuple(sol.id for sol in solution_set.solutions), values, ids.shape[1])


def within_set_eccentricities(sets: Sequence[SolutionSet], w: DistanceWeights) -> list[np.ndarray]:
    """Each set's eccentricities: every solution's largest distance within its set.

    They are the row maxima of ``distance_matrix`` of the set, taken block by
    block, so no set's n x n matrix is built. Steps are numbered once, and
    each position has one table, for all sets.
    """
    ids, steps = _step_ids(sol for s in sets for sol in s.solutions)
    columns = _column_tables(ids, steps, w)
    eccentricities = []
    for rows, l_pad in _set_spans(sets):
        ecc = np.empty(rows.stop - rows.start)
        for blk, block in _blocks(columns[:l_pad], rows):
            block.max(axis=1, initial=0.0, out=ecc[blk])
        eccentricities.append(ecc)
    return eccentricities


class JointSquares(_Record):
    """The squared joint matrix, which ``mds_project`` centres in place.

    ``squares`` is the writeable m x m array of squared distances among the
    distinct rows. The distances themselves are not kept: ``blocks()``
    recomputes them from the position tables ``columns``, one block of rows
    at a time.
    """

    __slots__ = __match_args__ = ("squares", "columns")
    squares: np.ndarray
    columns: list[tuple[np.ndarray, np.ndarray]]

    def __init__(self, squares, columns) -> None:
        self._fill(squares, columns)

    def __len__(self) -> int:
        return len(self.squares)

    def blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        return _blocks(self.columns, slice(0, len(self)))


def joint_squares(
    sets: Sequence[SolutionSet], w: DistanceWeights
) -> tuple[JointSquares, np.ndarray, list[np.ndarray]]:
    """The squared joint matrix, each solution's row in it, and each set's eccentricities.

    The joint matrix has one row per distinct sequence of all sets, for the
    first solution with it. Solution ``i`` of all sets in order has row
    ``index[i]``. Solutions with equal sequences have equal rows of step
    ids, so the steps are numbered once and the rows are told apart by their
    bytes. The matrix is filled by blocks of rows. While a block is fresh
    its range and diagonal are checked and each set's eccentricities taken:
    a pair's distance does not depend on the set it is computed in, so they
    are the row maxima within the columns of the rows the set uses. Then the
    block is squared in place. Symmetry is not checked: every position's
    table is symmetric, so every sum of gathers from them is.
    """
    ids, steps = _step_ids(sol for s in sets for sol in s.solutions)
    # Each row's first occurrence: in order, they are the distinct rows.
    firsts = np.fromiter(map({}.setdefault, map(bytes, ids), count()), np.intp, len(ids))
    distinct, index = np.unique(firsts, return_inverse=True)
    ids = ids[distinct]
    own = [index[rows] for rows, _ in _set_spans(sets)]
    columns = _column_tables(ids, steps, w)
    m, l_pad = ids.shape
    squares = np.empty((m, m))
    # Each set's columns; not np.unique: it imports numpy.ma.
    groups = [np.flatnonzero(np.bincount(rows)) for rows in own]
    maxima = [np.empty(m) for _ in groups]
    for blk in _row_blocks(m):
        block = squares[blk]
        _kernel(columns, slice(0, m), blk, block)
        if not (block.min() >= 0.0 and block.max() <= l_pad + 1e-9):  # NaN fails too
            raise ValueError(f"joint distance out of [0, L] in rows {blk.start}..{blk.stop - 1}")
        if block.diagonal(blk.start).any():
            raise ValueError(f"nonzero joint diagonal in rows {blk.start}..{blk.stop - 1}")
        for group, rowmax in zip(groups, maxima):
            block[:, group].max(axis=1, initial=0.0, out=rowmax[blk])
        block *= block
    eccentricities = [rowmax[rows] for rowmax, rows in zip(maxima, own)]
    return JointSquares(squares, columns), index, eccentricities
