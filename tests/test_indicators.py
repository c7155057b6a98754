import math
import random
import warnings

import numpy as np
import pytest

import archspread.indicators as indicators
from archspread.distance import DistanceMatrix, DistanceWeights
from archspread.indicators import (
    IndicatorResult,
    indicators_for,
    mas_from_eccentricities,
    max_architectural_spread,
    max_spread,
    spread_correlation,
)

from conftest import make_set, make_solution, make_step, random_set

W = DistanceWeights()


def dm_from(values, l_pad=None):
    n = len(values)
    l_pad = l_pad if l_pad is not None else math.ceil(max(max(r) for r in values) or 1)
    return DistanceMatrix(
        ids=tuple(f"s{i}" for i in range(n)),
        values=tuple(tuple(float(v) for v in row) for row in values),
        l_pad=l_pad,
    )


def test_ms_singleton_is_zero():
    assert max_spread(make_set(solutions=(make_solution("a", objectives=(3.0,)),))) == 0.0


def test_ms_of_an_empty_set_is_refused():
    with pytest.raises(ValueError, match=r"^empty solution set$"):
        max_spread(make_set())


def test_ms_three_four_five():
    s = make_set(
        objective_names=("f0", "f1"),
        solutions=(
            make_solution("a", objectives=(0.0, 0.0)),
            make_solution("b", objectives=(3.0, 4.0)),
        ),
    )
    assert max_spread(s) == pytest.approx(5.0)


def test_ms_matches_pairwise_bruteforce(rng):
    for _ in range(20):
        s = random_set(rng, n=5, n_obj=3)
        sols = s.solutions
        o = len(s.objective_names)
        # O(N^2 * o) oracle straight from the pairwise definition.
        total = 0.0
        for i in range(o):
            best = 0.0
            for a in sols:
                for b in sols:
                    best = max(best, (a.objectives[i] - b.objectives[i]) ** 2)
            total += best
        assert max_spread(s) == pytest.approx(math.sqrt(total), abs=0)


@pytest.mark.parametrize(
    "ranges",
    [(2e200,), (2e200, 3e200), (1e308, 1e-300), (1e-200,), (3e-160, 4e-160)],
)
def test_ms_is_finite_and_exact_past_the_range_of_squares(ranges):
    s = make_set(
        objective_names=tuple(f"f{k}" for k in range(len(ranges))),
        solutions=(
            make_solution("a", objectives=tuple(-r / 2 for r in ranges)),
            make_solution("b", objectives=tuple(r / 2 for r in ranges)),
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert max_spread(s) == math.hypot(*ranges)


@pytest.mark.parametrize("scale", [1e200, 5e307])
def test_correlation_of_huge_ms_values_writes_no_warning(scale):
    # At 5e307 the squares of the deviations overflow, and so does the sum.
    pairs = [(1.0, 0.2), (3.0, 0.5), (2.0, 0.4)]
    results = [result(f"s{i}", ms * scale, mas) for i, (ms, mas) in enumerate(pairs)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = spread_correlation(results)
    assert stats.spearman == 1.0
    assert 0.9 < stats.pearson <= 1.0


def test_pearson_of_an_ms_column_whose_sum_overflows():
    # Each MS is a valid float, but the column's sum is not, so its mean is not.
    ms = np.array([5e307, 1.5e308, 1e308])
    mas = np.array([0.2, 0.9, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = indicators._pearson(ms, mas)
        stats = spread_correlation([result(f"s{i}", *p) for i, p in enumerate(zip(ms, mas))])
    assert math.isfinite(r)
    assert r == indicators._pearson(ms * 2.0**-64, mas)
    assert r == indicators._pearson(ms * 2.0**-500, mas)
    assert stats.pearson == r


def test_mas_singleton_is_zero():
    assert max_architectural_spread(dm_from([[0.0]])) == 0.0


def test_mas_two_solutions_at_max_distance_is_one():
    dm = dm_from([[0.0, 2.0], [2.0, 0.0]], l_pad=2)
    assert max_architectural_spread(dm) == pytest.approx(1.0, abs=1e-12)


def test_mas_hand_matrices():
    dm = dm_from([[0, 2, 1], [2, 0, 2], [1, 2, 0]], l_pad=2)
    # Eccentricities 2, 2, 2 -> sqrt(12 / 12) = 1.
    assert max_architectural_spread(dm) == pytest.approx(1.0, abs=1e-12)

    dm = dm_from([[0, 2, 1], [2, 0, 1], [1, 1, 0]], l_pad=2)
    # Eccentricities 2, 2, 1 -> sqrt(9 / 12).
    assert max_architectural_spread(dm) == pytest.approx(math.sqrt(9 / 12), abs=1e-12)
    assert max_architectural_spread(dm) == pytest.approx(0.8660, abs=1e-4)


def test_mas_negative_max_d_rejected():
    with pytest.raises(ValueError, match="max_d must be non-negative"):
        mas_from_eccentricities(np.zeros(1), -1.0)


def test_mas_degenerate_scale_returns_zero():
    dm = dm_from([[0.0, 0.0], [0.0, 0.0]], l_pad=0)
    assert max_architectural_spread(dm) == 0.0


def test_mas_zero_iff_all_distances_zero(rng):
    for _ in range(50):
        n = rng.randint(2, 6)
        values = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                values[i][j] = values[j][i] = rng.choice([0.0, rng.uniform(0.1, 3.0)])
        dm = dm_from(values, l_pad=3)
        mas = max_architectural_spread(dm)
        all_zero = all(v == 0.0 for row in values for v in row)
        assert (mas == 0.0) == all_zero


def test_mas_one_iff_every_row_max_attains_max_d():
    dm = dm_from([[0, 3, 1], [3, 0, 3], [1, 3, 0]], l_pad=3)
    assert max_architectural_spread(dm) == pytest.approx(1.0, abs=1e-12)
    dm = dm_from([[0, 3, 1], [3, 0, 1], [1, 1, 0]], l_pad=3)
    assert max_architectural_spread(dm) < 1.0


def test_mas_permutation_invariance(rng):
    for _ in range(20):
        n = rng.randint(2, 8)
        values = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                values[i][j] = values[j][i] = rng.uniform(0.0, 4.0)
        dm = dm_from(values, l_pad=4)
        perm = list(range(n))
        rng.shuffle(perm)
        pvals = [[values[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        pdm = dm_from(pvals, l_pad=4)
        assert max_architectural_spread(dm) == max_architectural_spread(pdm)


def test_mas_scale_invariance(rng):
    values = [[0, 1.5, 0.5], [1.5, 0, 1.0], [0.5, 1.0, 0]]
    dm = dm_from(values, l_pad=2)
    scaled = dm_from([[v * 3 for v in row] for row in values], l_pad=6)
    assert max_architectural_spread(dm) == pytest.approx(
        max_architectural_spread(scaled), abs=1e-15
    )


def test_mas_all_pairs_reading():
    # One pair at max_d saturates the all-pairs reading but not the default.
    dm = dm_from([[0, 2, 0.1], [2, 0, 0.1], [0.1, 0.1, 0]], l_pad=2)
    assert max_architectural_spread(dm, all_pairs=True) == pytest.approx(1.0, abs=1e-12)
    assert max_architectural_spread(dm) < 1.0


def _two_sets():
    seq_a = (make_step("x", ("p",)),)
    seq_b = (make_step("y", ("q",)),)
    set1 = make_set(
        label="one",
        solutions=(
            make_solution("a", objectives=(0.0,), steps=seq_a),
            make_solution("b", objectives=(1.0,), steps=seq_b),
        ),
    )
    set2 = make_set(
        label="two",
        solutions=(
            make_solution("a", objectives=(0.0,), steps=seq_a),
            make_solution("b", objectives=(1.0,), steps=seq_b),
        ),
    )
    return set1, set2


def test_indicators_for_identical_sets_identical_results():
    set1, set2 = _two_sets()
    r1, r2 = indicators_for([set1, set2], W)
    assert (r1.ms, r1.mas, r1.n, r1.max_d) == (r2.ms, r2.mas, r2.n, r2.max_d)


def test_indicators_spaces_are_independent():
    seq = (make_step("x", ("p",)),)
    s = make_set(
        solutions=(
            make_solution("a", objectives=(0.0,), steps=seq),
            make_solution("b", objectives=(9.0,), steps=seq),
        )
    )
    (result,) = indicators_for([s], W)
    assert result.mas == 0.0
    assert result.ms > 0.0


def test_indicators_maximally_dispersed_set_reaches_one():
    set1, _ = _two_sets()
    (result,) = indicators_for([set1], W)
    assert result.mas == pytest.approx(1.0, abs=1e-12)


def test_indicators_shared_vs_per_set_max_d():
    short = make_set(
        label="short",
        solutions=(
            make_solution("a", objectives=(0.0,), steps=(make_step("x", ("p",)),)),
            make_solution("b", objectives=(1.0,), steps=(make_step("y", ("q",)),)),
        ),
    )
    long = make_set(
        label="long",
        solutions=(
            make_solution(
                "a", objectives=(0.0,), steps=(make_step("x", ("p",)),) * 3
            ),
            make_solution(
                "b", objectives=(1.0,), steps=(make_step("y", ("q",)),) * 3
            ),
        ),
    )
    shared = indicators_for([short, long], W, shared_max_d=True)
    per_set = indicators_for([short, long], W, shared_max_d=False)
    assert shared[0].max_d == shared[1].max_d == 3.0
    assert per_set[0].max_d == 1.0 and per_set[1].max_d == 3.0
    assert shared[0].mas < per_set[0].mas


def result(label, ms, mas):
    return IndicatorResult(label, ms, mas, n=5, max_d=1.0, o=2)


def test_correlation_monotone_case():
    results = [result(f"s{i}", float(i), i / 10.0) for i in range(5)]
    stats = spread_correlation(results)
    assert stats.spearman == pytest.approx(1.0)
    assert stats.spearman is not None


def test_correlation_constant_mas_not_computable():
    results = [result(f"s{i}", float(i), 0.5) for i in range(5)]
    stats = spread_correlation(results)
    assert stats.spearman is None and stats.pearson is None


def test_correlation_requires_three_results():
    with pytest.raises(ValueError):
        spread_correlation([result("a", 1.0, 0.1), result("b", 2.0, 0.2)])


def _rank_correlation_oracle(xs, ys):
    """Independent Spearman: Pearson on mid-ranks."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            mid = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = mid
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def _pearson_oracle(xs, ys):
    """Independent Pearson: the textbook formula in pure Python."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = math.sqrt(sum((a - mx) ** 2 for a in xs) * sum((b - my) ** 2 for b in ys))
    return num / den


def _uniform_results(rng, n):
    return [result(f"s{i}", rng.uniform(0, 10), rng.uniform(0, 1)) for i in range(n)]


def _tied_results(rng, n):
    """Integer-valued MS and MAS columns, so most values are tied."""
    while True:
        results = [
            result(f"s{i}", float(rng.randint(0, 4)), float(rng.randint(0, 3))) for i in range(n)
        ]
        if len({r.ms for r in results}) > 1 and len({r.mas for r in results}) > 1:
            return results


def _collinear_results(rng, n):
    """MAS a scaled MS plus last-bit noise: the unclipped r often exceeds 1."""
    ms = [rng.uniform(0, 1e6) for _ in range(n)]
    return [result(f"s{i}", m, m * 1e-7 + rng.uniform(0, 1e-15)) for i, m in enumerate(ms)]


def test_correlation_matches_rank_oracle():
    rng = random.Random(777)
    for draw in (_uniform_results, _tied_results):
        for _ in range(10):
            results = draw(rng, 8)
            stats = spread_correlation(results)
            oracle = _rank_correlation_oracle(
                [r.ms for r in results], [r.mas for r in results]
            )
            assert stats.spearman == pytest.approx(oracle, abs=1e-12)


def test_correlation_matches_pearson_oracle():
    rng = random.Random(778)
    for draw in (_uniform_results, _tied_results):
        for n in (3, 8, 48):
            results = draw(rng, n)
            stats = spread_correlation(results)
            oracle = _pearson_oracle([r.ms for r in results], [r.mas for r in results])
            assert stats.pearson == pytest.approx(oracle, abs=1e-12)
            assert stats.pearson is not None


def test_correlation_equals_scipy_exactly():
    """The numpy helpers reproduce scipy.stats bit for bit, ties included."""
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(779)
    for draw in (_uniform_results, _tied_results, _collinear_results):
        for n in (3, 4, 7, 20, 48, 120):
            for _ in range(5):
                results = draw(rng, n)
                ms = [r.ms for r in results]
                mas = [r.mas for r in results]
                got = spread_correlation(results)
                assert got.pearson == float(stats.pearsonr(ms, mas).statistic)
                assert got.spearman == float(stats.spearmanr(ms, mas).statistic)


def test_correlation_constant_column_with_nonzero_std_not_computable():
    # np.std([0.1] * 3) is 1.4e-17, not 0: the mean rounds away from 0.1.
    results = [result(f"s{i}", float(i), 0.1) for i in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = spread_correlation(results)
    assert stats.pearson is None and stats.spearman is None
