"""Spread indicators: MS over the objective space, MAS over the architectural space."""

from __future__ import annotations

import math
from typing import Sequence

from ._lazy import np
from .distance import DistanceMatrix, DistanceWeights, padded_length, within_set_eccentricities
from .model import SolutionSet, _Record


class IndicatorResult(_Record):
    """Spread values for one solution set."""

    __slots__ = __match_args__ = (
        "set_label", "ms", "mas", "n", "max_d", "o", "l_pad", "diagnostics"
    )
    set_label: str
    ms: float
    mas: float
    n: int
    max_d: float
    o: int
    l_pad: int
    diagnostics: tuple[str, ...]

    def __init__(
        self,
        set_label: str,
        ms: float,
        mas: float,
        n: int,
        max_d: float,
        o: int,
        l_pad: int = 0,
        diagnostics: tuple[str, ...] = (),
    ) -> None:
        self._fill(set_label, ms, mas, n, max_d, o, l_pad, diagnostics)


class CorrelationStats(_Record):
    """Descriptive correlation between the objective-space and architectural spreads.

    A coefficient is ``None`` when it is not computable.
    """

    __slots__ = __match_args__ = ("n", "pearson", "spearman")
    n: int
    pearson: float | None
    spearman: float | None

    def __init__(self, n: int, pearson: float | None, spearman: float | None) -> None:
        self._fill(n, pearson, spearman)


def max_spread(solution_set: SolutionSet) -> float:
    """Root-sum-square of per-objective ranges.

    Equivalent to the pairwise form: the largest squared difference over all
    solution pairs in one objective is the squared range of that objective.
    """
    if len(solution_set.solutions) == 0:
        raise ValueError("empty solution set")
    obj = np.array([s.objectives for s in solution_set.solutions], dtype=float)
    if obj.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        ranges = obj.max(axis=0) - obj.min(axis=0)
        ms = float(np.sqrt(np.sum(ranges**2)))
    # A range past ~1.3e154 overflows when squared, one below ~1.5e-154 (the
    # root of the smallest normal float) loses bits or vanishes; math.hypot
    # scales before it squares.
    if 1.5e-154 <= ms < math.inf:
        return ms
    return math.hypot(*ranges.tolist())


def max_architectural_spread(dm: DistanceMatrix, all_pairs: bool = False) -> float:
    """Normalized root-mean-square of per-solution eccentricities, in [0, 1].

    The eccentricity of a solution is its maximum distance to any other
    solution in the set. With ``all_pairs=True`` every solution's summand is
    replaced by the global maximum pairwise distance (compatibility reading;
    it saturates at 1 as soon as any single pair attains ``max_d``). The scale
    ``max_d`` is ``dm.l_pad``.
    """
    return mas_from_eccentricities(dm.values.max(axis=1, initial=0.0), float(dm.l_pad), all_pairs)


def mas_from_eccentricities(ecc: np.ndarray, max_d: float, all_pairs: bool = False) -> float:
    """MAS of a set from its solutions' eccentricities and the scale ``max_d``.

    MAS depends on the distances only through the eccentricities; see
    ``max_architectural_spread``.
    """
    if max_d < 0:
        raise ValueError("max_d must be non-negative")
    n = len(ecc)
    if n <= 1:
        return 0.0
    if max_d == 0.0:
        # Degenerate scale: all sequences empty, no spread is expressible.
        return 0.0
    if all_pairs:
        ecc = np.full(n, ecc.max())
    # fsum is exact, so the result cannot depend on solution order.
    return math.sqrt(math.fsum(float(e) * float(e) for e in ecc) / (n * max_d**2))


def indicators_for(
    sets: list[SolutionSet],
    w: DistanceWeights,
    shared_max_d: bool = True,
    all_pairs: bool = False,
) -> list[IndicatorResult]:
    """One IndicatorResult per set.

    By default MAS is normalized by a shared max_d (the largest padded length
    over all sets) so values are comparable across sets; ``shared_max_d=False``
    normalizes each set by its own longest sequence. Each set's eccentricities
    are computed block by block; no set's distance matrix is built.
    """
    return indicators_from_eccentricities(
        sets, within_set_eccentricities(sets, w), shared_max_d=shared_max_d, all_pairs=all_pairs
    )


def indicators_from_eccentricities(
    sets: Sequence[SolutionSet],
    eccentricities: Sequence[np.ndarray],
    shared_max_d: bool = True,
    all_pairs: bool = False,
) -> list[IndicatorResult]:
    """``indicators_for`` from each set's already computed eccentricities."""
    l_pads = [padded_length(s) for s in sets]
    shared = float(max(l_pads, default=0))
    results = []
    for s, ecc, l_pad in zip(sets, eccentricities, l_pads):
        max_d = shared if shared_max_d else float(l_pad)
        diagnostics: tuple[str, ...] = ()
        if max_d == 0.0 and len(s) > 1:
            diagnostics = ("degenerate scale: max_d is 0 (all sequences empty)",)
        results.append(
            IndicatorResult(
                set_label=s.label,
                ms=max_spread(s),
                mas=mas_from_eccentricities(ecc, max_d, all_pairs),
                n=len(s),
                max_d=max_d,
                o=len(s.objective_names),
                l_pad=l_pad,
                diagnostics=diagnostics,
            )
        )
    return results


def spread_correlation(results: list[IndicatorResult]) -> CorrelationStats:
    """Pearson and Spearman correlation between the MS and MAS columns.

    Purely descriptive; a zero-variance column makes the corresponding
    coefficient not computable and is flagged rather than reported as NaN.
    """
    if len(results) < 3:
        raise ValueError("correlation needs at least 3 sets")
    ms = np.array([r.ms for r in results])
    mas = np.array([r.mas for r in results])
    # Rounding in the mean can give a constant column a tiny nonzero std; a
    # huge MS column overflows it to inf, which is not 0 either.
    with np.errstate(over="ignore"):
        if any(float(np.std(c)) == 0.0 or (c == c[0]).all() for c in (ms, mas)):
            return CorrelationStats(len(results), None, None)
    pearson = _pearson(ms, mas)
    spearman = _spearman(ms, mas)
    return CorrelationStats(
        n=len(results),
        pearson=pearson if math.isfinite(pearson) else None,
        spearman=spearman if math.isfinite(spearman) else None,
    )


# Brings the sum of fewer than 2**64 finite floats below the largest float.
_SHRINK = 2.0**-64


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r of two non-constant columns.

    Centres each column, scales it by its largest deviation before taking the
    norm (no premature overflow), then clips the dot product of the unit
    columns to [-1, 1]. These are the reference library's floating-point steps
    in this order; the tests check the result against it bit for bit.

    A column whose mean overflows (its sum passes the largest float) is first
    scaled by an exact power of two. Each step commutes with that scaling and
    r is scale-invariant, so r is that of the scaled column.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        x, y = (c if math.isfinite(c.mean()) else c * _SHRINK for c in (x, y))
        xm = x - x.mean()
        ym = y - y.mean()
        xmax = np.abs(xm).max()
        ymax = np.abs(ym).max()
        norm_x = xmax * np.sqrt(np.sum((xm / xmax) ** 2))
        norm_y = ymax * np.sqrt(np.sum((ym / ymax) ** 2))
        r = np.dot(xm / norm_x, ym / norm_y)
    return float(np.clip(r, -1.0, 1.0))


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho of two non-constant columns: Pearson's r of their average ranks.

    Ranks are exact half-integers and the coefficient is ``np.corrcoef`` of
    the two rank columns, as in the reference library.
    """
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ordinal ranks."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(a)]
    ranks = np.empty(len(a))
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks
