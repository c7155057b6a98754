"""Architectural distance between encoded refactoring sequences.

Each aligned position contributes at most 1: a 0/1 name mismatch weighted by
``w_pred`` plus a length-normalized Levenshtein over the argument symbols
weighted by ``w_args``. Sequences of different lengths are tail-padded with a
sentinel step that is at distance 1 from every real step.

Matrices are computed by a step-table kernel: every distinct step gets an
integer id (``PAD`` is 0), each solution becomes a row of ids, and the matrix
is the position-by-position sum of gathers from one table of step distances.
The table applies the same floating-point operations as ``step_distance`` and
the sum runs in position order from 0.0, so every entry equals
``sequence_distance`` of its pair exactly. Each call encodes the solutions it
measures; the encoding is injective, so the distances do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ._lazy import np
from .encoding import PAD, EncodedStep, EncodingTable, build_encoding
from .model import ArchitectureSolution, DistanceMatrix, SolutionSet, TransformationStep


@dataclass(frozen=True)
class DistanceWeights:
    """Channel weights; they must sum to 1 so a position contributes at most 1."""

    w_pred: float = 0.5
    w_args: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.w_pred <= 1.0 and 0.0 <= self.w_args <= 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if abs(self.w_pred + self.w_args - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


def _levenshtein(a: tuple[int, ...], b: tuple[int, ...]) -> int:
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


def _simargs(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    longer = max(len(a), len(b))
    if longer == 0:
        return 0.0
    return _levenshtein(a, b) / longer


def step_distance(a: EncodedStep, b: EncodedStep, w: DistanceWeights) -> float:
    """Distance between two aligned steps, in [0, 1]."""
    a_pad = a == PAD
    b_pad = b == PAD
    if a_pad and b_pad:
        return 0.0
    if a_pad or b_pad:
        return 1.0
    simpred = 0.0 if a.name == b.name else 1.0
    return simpred * w.w_pred + _simargs(a.args, b.args) * w.w_args


def sequence_distance(
    a: tuple[EncodedStep, ...], b: tuple[EncodedStep, ...], w: DistanceWeights
) -> float:
    """Sum of per-position step distances after tail-padding to equal length.

    Result lies in [0, max(|a|, |b|)]; two empty sequences are at distance 0.
    """
    length = max(len(a), len(b))
    total = 0.0
    for k in range(length):
        sa = a[k] if k < len(a) else PAD
        sb = b[k] if k < len(b) else PAD
        total += step_distance(sa, sb, w)
    return total


def _step_ids(
    solutions: Iterable[ArchitectureSolution], table: EncodingTable
) -> tuple[np.ndarray, list[EncodedStep]]:
    """Encode solutions as an ``(n, L_pad)`` array of step ids, tail-padded with 0.

    Also returns the distinct steps; step ``i`` of that list has id ``i + 1``.
    Each distinct step is encoded once, at its first occurrence; ``table`` is
    injective, so equal steps and equal encodings get the same ids.
    """
    step_id: dict[TransformationStep, int] = {}
    steps: list[EncodedStep] = []
    rows = []
    for sol in solutions:
        row = []
        for step in sol.sequence:
            i = step_id.get(step)
            if i is None:
                steps.append(table.encode_step(step))
                i = step_id[step] = len(steps)
            row.append(i)
        rows.append(row)
    ids = np.zeros((len(rows), max(map(len, rows), default=0)), dtype=np.intp)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    return ids, steps


def _step_table(steps: Sequence[EncodedStep], w: DistanceWeights) -> np.ndarray:
    """``(U + 1) x (U + 1)`` step distances indexed by step id, ``PAD`` at 0.

    Built from a name-inequality matrix and a normalized-Levenshtein table over
    the distinct argument tuples, combined with the operations of
    ``step_distance`` so each entry is bit-identical to it.
    """
    arg_id: dict[tuple[int, ...], int] = {}
    step_args = np.array([arg_id.setdefault(s.args, len(arg_id)) for s in steps], dtype=np.intp)
    arg_tuples = list(arg_id)
    simargs = np.zeros((len(arg_tuples), len(arg_tuples)))
    for i, a in enumerate(arg_tuples):
        for j in range(i + 1, len(arg_tuples)):
            simargs[i, j] = simargs[j, i] = _simargs(a, arg_tuples[j])
    names = np.array([s.name for s in steps], dtype=np.int64)
    out = np.ones((len(steps) + 1, len(steps) + 1))
    out[0, 0] = 0.0
    # In place, to hold one U x U temporary: neq * w_pred + simargs * w_args.
    real = out[1:, 1:]
    np.multiply(names[:, None] != names[None, :], w.w_pred, out=real)
    args = simargs[step_args[:, None], step_args[None, :]]
    args *= w.w_args
    real += args
    return out


def _kernel(step_table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Pairwise sums of aligned step distances, accumulated in position order.

    Positions past the end of both sequences add PAD/PAD = +0.0, which leaves
    a non-negative sum unchanged.
    """
    out = np.zeros((len(ids), len(ids)))
    for k in range(ids.shape[1]):
        out += step_table[ids[:, k, None], ids[None, :, k]]
    out.flags.writeable = False
    return out


def _set_matrix(solution_set: SolutionSet, values: np.ndarray, l_pad: int) -> DistanceMatrix:
    return DistanceMatrix(
        ids=tuple(sol.id for sol in solution_set.solutions),
        values=values,
        l_pad=l_pad,
    )


def _set_spans(sets: Sequence[SolutionSet]) -> Iterator[tuple[SolutionSet, slice, int]]:
    """Each set with its rows among all sets' solutions in order, and its ``l_pad``."""
    start = 0
    for s in sets:
        l_pad = max((len(sol.sequence) for sol in s.solutions), default=0)
        yield s, slice(start, start + len(s)), l_pad
        start += len(s)


def distance_matrix(solution_set: SolutionSet, w: DistanceWeights) -> DistanceMatrix:
    """Full pairwise distance matrix for one set.

    ``l_pad`` is the longest sequence in the set and the default MAS scale.
    """
    return within_set_matrices([solution_set], w)[0]


def within_set_matrices(sets: Sequence[SolutionSet], w: DistanceWeights) -> list[DistanceMatrix]:
    """``distance_matrix`` of every set, computed from one encoding and step table.

    Only the within-set pairs are computed: the sum of squared set sizes.
    """
    ids, steps = _step_ids((sol for s in sets for sol in s.solutions), build_encoding(list(sets)))
    step_table = _step_table(steps, w)
    return [
        _set_matrix(s, _kernel(step_table, ids[rows, :l_pad]), l_pad)
        for s, rows, l_pad in _set_spans(sets)
    ]


def within_set_blocks(joint: DistanceMatrix, sets: Sequence[SolutionSet]) -> list[DistanceMatrix]:
    """Each set's own matrix, sliced from a matrix over all sets' solutions in order.

    A pair's distance does not depend on the set it is computed in, so each
    block equals ``distance_matrix`` of its set.
    """
    return [_set_matrix(s, joint.values[rows, rows], l_pad) for s, rows, l_pad in _set_spans(sets)]
