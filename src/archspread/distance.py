"""Architectural distance between refactoring sequences.

Each aligned position contributes at most 1: a 0/1 name mismatch weighted by
``w_pred`` plus a length-normalized Levenshtein over the argument tokens
weighted by ``w_args``. Sequences of different lengths are tail-padded with a
padding step (``None``) that is at distance 1 from every real step.

Matrices are computed by a per-position kernel: every distinct step gets an
integer id (padding is 0) and each solution becomes a row of ids; the
numbering holds about one flat array of ids beside that array. Each
position has a small table of step distances over the steps that occur there,
and the matrix is the position-by-position sum of gathers from those tables,
so memory grows with the sum of their squared sizes, not with the square of
all distinct steps. A caller's tables cover the rows it compares: one set for
``distance_matrix``, the distinct rows of all sets for the joint pass, and
one group of consecutive sets at a time for the within-set eccentricities,
so ``indicators`` holds tables over one group's steps, not all sets'. The
argument similarities come from one table over the call's distinct argument
tuples while it holds no more entries than the distances the caller fills,
and from each position's own DP above that. The argument DP runs once per
row arity and length band, so its cost follows the token products of the
pairs it fills, not the square of the arities. The tables apply the same
floating-point operations as ``step_distance`` and the sum runs in position
order from 0.0, so every entry equals ``sequence_distance`` of its pair
exactly. The tables compare only step names and argument tokens for
equality, so they number those themselves.
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


def _upper_bound(l_pad: int) -> float:
    """``l_pad`` plus rounding slack: a position may add ``w_pred + w_args``, which can pass 1."""
    return l_pad + (l_pad + 1) * 1e-9


class DistanceMatrix(_Record):
    """Symmetric matrix of architectural distances between solutions.

    The rows are one set's solutions. ``values`` is a read-only float64
    array. Any other input is copied into one; a read-only float64 array is
    kept as given. ``l_pad`` bounds every entry, up to a rounding slack
    of 1e-9 per position, and is the default MAS scale.
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
        in_range = (values >= 0.0) & (values <= _upper_bound(l_pad))
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
    if not (values.min() >= 0.0 and values.max() <= _upper_bound(l_pad)):
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
    int; only each distinct step object is hashed as a step, once. Each
    occurrence's id is then gathered in place, over its first occurrence's
    index, and the ids fill the array, row by row, in one assignment. Beside
    ``ids`` the numbering holds about one flat array of them.
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
    numbers = [step_id.setdefault(steps[k], len(step_id) + 1) for k in firsts]
    # Each flat array goes before the next one is made.
    del first, steps
    code = np.zeros(len(occurrence), dtype=np.intp)
    code[firsts] = numbers
    del firsts, numbers
    code.take(occurrence, out=occurrence, mode="clip")  # "raise" would buffer the output
    del code
    lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
    ids = np.zeros((len(sequences), lengths.max(initial=0)), dtype=np.intp)
    # The filled cells, a position at a time: a broadcast comparison buffers 2 x 8 192 ints.
    filled = np.empty(ids.shape[::-1], dtype=bool)
    for p, cells in enumerate(filled):
        np.greater(lengths, p, out=cells)
    ids[filled.T] = occurrence
    return ids, list(step_id)


def _levenshtein_block(a: np.ndarray, b: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Levenshtein distance of each row of ``a`` to each row of ``b``, by one batched DP.

    ``a`` is ``(r, la)`` and ``b`` is ``(c, lb)``. Row ``k`` of ``b`` is read
    at its own length ``lengths[k] <= lb``, in ascending order: ``D[i, j]``
    depends on the first ``j`` tokens of a row only, so the tokens past it
    are never read. The DP runs row by row on ``lb + 1`` planes of ``r x c``
    pairs. Plane ``j`` holds ``D[i, j] - i - j``: it keeps 0 in column 0,
    and the insertions of a row are a running minimum over the planes, taken
    by doubling in ``log2(lb + 1)`` steps.
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
    last = d[-1] if lengths[0] == b.shape[1] else d[lengths, :, np.arange(len(b))].T
    return last + (lengths + a.shape[1])


def _simargs_table(args: Sequence[tuple[int, ...]]) -> np.ndarray:
    """``_simargs`` of every two of ``args``, one batched DP per row arity and length band.

    The tuples are taken in order of length. Band ``k`` holds the tuples
    whose length has ``k`` bits (``2**(k - 1)`` to ``2**k - 1`` tokens), its
    tokens padded to its longest. Each block of ``_ROW_BLOCK`` tuples of
    arity ``la`` meets, in one ``_levenshtein_block`` per band, the band's
    tuples at least as long, each read at its own length, and the result is
    written straight to its rows and columns. A pair of ``la`` and
    ``lb >= la`` tokens then fills fewer than ``2 * la * lb`` cells, so the
    DP work follows the token products of the pairs, as in ``_levenshtein``,
    and there is one DP per arity and band, not one per two arities.
    Levenshtein distance is symmetric, so the other half is mirrored, and a
    tuple alone in its arity is at distance 0 from itself. Each distance is
    divided by the longer length, as ``_simargs`` does.
    """
    lengths = np.fromiter(map(len, args), dtype=np.intp, count=len(args))
    order = np.argsort(lengths)  # any order within an arity: rows and columns keep their index
    ordered = lengths[order]
    arities = np.flatnonzero(np.bincount(lengths)).tolist()
    # Where each arity, then each band, starts in length order.
    starts = [*np.searchsorted(ordered, arities).tolist(), len(args)]
    top = arities[-1] if arities else 0
    edges = np.searchsorted(ordered, [(1 << k) >> 1 for k in range(top.bit_length() + 2)]).tolist()
    bands = {  # each band's tokens, in length order, padded to its longest tuple
        k: np.zeros((high - low, ordered[high - 1]), dtype=np.int64)
        for k, (low, high) in enumerate(zip(edges, edges[1:]))
        if low < high
    }
    for x, la in enumerate(arities):
        k = la.bit_length()
        tuples = np.array([args[i] for i in order[starts[x] : starts[x + 1]].tolist()], np.int64)
        band = bands[k][starts[x] - edges[k] : starts[x + 1] - edges[k]]
        band[:, :la] = tuples.reshape(len(tuples), la)
    lev = np.zeros((len(args), len(args)), dtype=np.intp)
    for x, la in enumerate(arities):
        own = la.bit_length()
        a = bands[own][starts[x] - edges[own] : starts[x + 1] - edges[own], :la]
        rows = order[starts[x] : starts[x + 1]]
        for k, b in bands.items():
            low, high = max(edges[k], starts[x]), edges[k + 1]
            # None at least as long below la's band; in it, a tuple alone in
            # its arity and last in the band is at distance 0 from itself.
            if high - low <= (k == own):
                continue
            b, cols = b[low - edges[k] :], order[low:high]
            for blk in _row_blocks(len(a)):
                lev[rows[blk, None], cols] = _levenshtein_block(a[blk], b, ordered[low:high])
    lev = np.maximum(lev, lev.T)
    longer = np.maximum(lengths[:, None], lengths[None, :])
    return np.divide(lev, longer, out=np.zeros(lev.shape), where=longer > 0)


class _StepCodes:
    """The distinct steps of one call as ints, numbered once for all its position tables.

    Step id ``i`` has name ``names[i]`` and argument tuple ``args[i]``;
    padding, id 0, has -1 for both. ``tuples`` holds each argument tuple's
    tokens. Names, argument tuples and tokens are numbered in first-seen
    order, so equal ints mean equal strings.

    ``simargs`` holds ``w_args * _simargs`` of every two argument tuples
    that meet at some position of ``ids``, the call's rows of step ids. It
    is kept only while it holds no more entries than ``pairs``, the
    distances the caller fills; above that it is None, and each position
    table computes the pairs of its own tuples.
    """

    __slots__ = ("w", "names", "args", "tuples", "simargs")

    def __init__(
        self, ids: np.ndarray, steps: Sequence[TransformationStep], w: DistanceWeights, pairs: int
    ) -> None:
        name_id: dict[str, int] = {}
        arg_id: dict[tuple[str, ...], int] = {}
        token_id: dict[str, int] = {}
        self.w = w
        self.names = np.array([-1] + [name_id.setdefault(s.name, len(name_id)) for s in steps])
        self.args = np.array([-1] + [arg_id.setdefault(s.args, len(arg_id)) for s in steps])
        self.tuples = [tuple(token_id.setdefault(t, len(token_id)) for t in a) for a in arg_id]
        self.simargs = self._meeting_pairs(ids) if len(arg_id) ** 2 <= pairs else None

    def _table(self, args: np.ndarray) -> np.ndarray:
        """``w_args * _simargs`` of every two of the distinct argument tuples ``args``."""
        table = _simargs_table([self.tuples[a] for a in args])
        table *= self.w.w_args
        return table

    def _meeting_pairs(self, ids: np.ndarray) -> np.ndarray:
        """The argument table over every pair of tuples that meets at some position of ``ids``.

        The tuples at each position are marked through one array of the
        cells' argument ids, shifted in place by their position's offset.
        Position by position, a DP runs over the tuples there that meet one
        not yet met, so no position runs more DP than its own table would.
        Pairs that never meet stay NaN; no position table reads them.
        """
        base = len(self.tuples) + 1  # argument ids shifted by one: padding is 0
        offsets = range(0, ids.shape[1] * base, base)
        # Each cell's slot in seen, a column at a time: a broadcast add buffers 8 192 ints.
        marks = self.args.take(ids)
        for p, offset in enumerate(offsets):
            marks[:, p] += offset + 1
        # Not np.unique: it imports numpy.ma. (base - 1)² <= pairs <= n² for
        # the n rows of ids, so this holds about as many bools as ids ints.
        seen = np.zeros(ids.shape[1] * base, dtype=bool)
        seen[marks] = True
        del marks
        present = np.flatnonzero(seen)
        starts = np.searchsorted(present, offsets).tolist() + [len(present)]
        present %= base
        present -= 1
        simargs = np.full((base - 1, base - 1), np.nan)
        for p in range(ids.shape[1]):
            args = present[starts[p] : starts[p + 1]]
            args = args[args >= 0]
            args = args[np.isnan(simargs[args[:, None], args]).any(axis=1)]
            if len(args):
                simargs[args[:, None], args] = self._table(args)
        return simargs

    def simargs_of(self, args: np.ndarray) -> np.ndarray:
        """``w_args * _simargs`` of every two of the argument tuples ``args``, repeats included."""
        if self.simargs is None:
            args, index = np.unique(args, return_inverse=True)
            return self._table(args).take(index, axis=0).take(index, axis=1)
        return self.simargs.take(args, axis=0).take(args, axis=1)


def _position_tables(ids: np.ndarray, codes: _StepCodes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per position of ``ids``: each row's index into a table, and that table of step distances.

    A position's table covers only the distinct steps at that position, in
    id order, so padding comes first when present; every position holds at
    least one real step. One ``np.unique`` numbers the (position, step)
    pairs of all positions at once. Each entry applies the operations of
    ``step_distance``, so it is bit-identical to it.
    """
    n, length = ids.shape
    base = len(codes.names)
    # Position-major, so each position's index into its table is one row.
    present, index = np.unique((ids + np.arange(length) * base).T, return_inverse=True)
    starts = np.searchsorted(present, np.arange(length) * base)
    index = index.reshape(length, n)
    index -= starts[:, None]
    present %= base
    pads = (present[starts] == 0).tolist()
    out = []
    for p, start, stop in zip(range(length), starts.tolist(), [*starts[1:].tolist(), len(present)]):
        table = np.ones((stop - start, stop - start))
        if pads[p]:
            table[0, 0] = 0.0
        inner = table[pads[p] :, pads[p] :]
        real = present[start + pads[p] : stop]
        names = codes.names[real]
        np.multiply(names[:, None] != names, codes.w.w_pred, out=inner)
        inner += codes.simargs_of(codes.args[real])
        out.append((index[p], table))
    return out


def _column_tables(
    ids: np.ndarray, steps: Sequence[TransformationStep], w: DistanceWeights
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Position tables over all rows of ``ids``; their n² distances bound the argument table."""
    return _position_tables(ids, _StepCodes(ids, steps, w, len(ids) ** 2))


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


def padded_length(solution_set: SolutionSet) -> int:
    """The longest sequence in a set: its ``l_pad``, which bounds every distance in it."""
    return max((len(sol.sequence) for sol in solution_set.solutions), default=0)


def _set_spans(sets: Sequence[SolutionSet]) -> Iterator[slice]:
    """Each set's rows among all sets' solutions in order."""
    start = 0
    for s in sets:
        yield slice(start, start + len(s))
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


def _set_groups(spans: Sequence[tuple[slice, int]]) -> Iterator[list[tuple[slice, int]]]:
    """Consecutive sets' spans, gathered until a group holds two blocks of rows or more."""
    group: list[tuple[slice, int]] = []
    for span in spans:
        group.append(span)
        if span[0].stop - group[0][0].start >= 2 * _ROW_BLOCK:
            yield group
            group = []
    if group:
        yield group


def within_set_eccentricities(sets: Sequence[SolutionSet], w: DistanceWeights) -> list[np.ndarray]:
    """Each set's eccentricities: every solution's largest distance within its set.

    They are the row maxima of ``distance_matrix`` of the set, taken block by
    block, so no set's n x n matrix is built. Steps are numbered once, and
    each set's ``l_pad`` is read from its rows of step ids. The position
    tables cover one group of consecutive sets at a time, about two blocks
    of rows, so they grow with the group's steps, not all sets'; a group's
    tables go before the next group's are built. The argument table is
    shared by all groups while it holds no more entries than the sum of the
    sets' n². Every block of every set is filled into a view of one
    buffer, sized for the largest set.
    """
    ids, steps = _step_ids(sol for s in sets for sol in s.solutions)
    # Padding is a zero suffix, so a set's l_pad counts the columns it fills.
    spans = [(rows, int(np.count_nonzero(ids[rows].any(axis=0)))) for rows in _set_spans(sets)]
    codes = _StepCodes(ids, steps, w, sum((rows.stop - rows.start) ** 2 for rows, _ in spans))
    widest = max((rows.stop - rows.start for rows, _ in spans), default=0)
    buffer = np.empty((min(widest, _ROW_BLOCK), widest))
    eccentricities = []
    for group in _set_groups(spans):
        first = group[0][0].start
        columns = _position_tables(
            ids[first : group[-1][0].stop, : max(l_pad for _, l_pad in group)], codes
        )
        for rows, l_pad in group:
            n = rows.stop - rows.start
            ecc = np.empty(n)
            for blk in _row_blocks(n):
                block = buffer[: blk.stop - blk.start, :n]
                _kernel(columns[:l_pad], slice(rows.start - first, rows.stop - first), blk, block)
                block.max(axis=1, initial=0.0, out=ecc[blk])
            eccentricities.append(ecc)
        del columns  # before the next group's tables are built
    return eccentricities


def joint_squares(
    sets: Sequence[SolutionSet], w: DistanceWeights
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The squared joint matrix, each solution's row in it, and each set's eccentricities.

    The joint matrix has one row per distinct sequence of all sets, for the
    first solution with it. Solution ``i`` of all sets in order has row
    ``index[i]``. Solutions with equal sequences have equal rows of step
    ids, so the steps are numbered once and the rows are told apart by their
    bytes. The matrix is filled by blocks of rows. While a block is fresh
    each set's eccentricities are taken from it (a pair's distance does not
    depend on its set, so they are the row maxima within the set's columns)
    and it is squared in place. Range, diagonal and symmetry are not checked
    per run: the position tables guarantee all three, and a test pins them.
    Each block is filled once, and the position tables are dropped on
    return. The squared matrix is returned as the writeable m x m float64
    array it was filled in, for ``mds_project`` to centre in place and take
    the stress's distances back from.
    """
    ids, steps = _step_ids(sol for s in sets for sol in s.solutions)
    # Each row's first occurrence: in order, they are the distinct rows.
    firsts = np.fromiter(map({}.setdefault, map(bytes, ids), count()), np.intp, len(ids))
    distinct, index = np.unique(firsts, return_inverse=True)
    ids = ids[distinct]
    own = [index[rows] for rows in _set_spans(sets)]
    columns = _column_tables(ids, steps, w)
    m = len(ids)
    squares = np.empty((m, m))
    # Each set's columns; not np.unique: it imports numpy.ma.
    groups = [np.flatnonzero(np.bincount(rows)) for rows in own]
    maxima = [np.empty(m) for _ in groups]
    for blk in _row_blocks(m):
        block = squares[blk]
        _kernel(columns, slice(0, m), blk, block)
        for group, rowmax in zip(groups, maxima):
            block[:, group].max(axis=1, initial=0.0, out=rowmax[blk])
        block *= block
    eccentricities = [rowmax[rows] for rowmax, rows in zip(maxima, own)]
    return squares, index, eccentricities
