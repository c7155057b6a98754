import itertools
import time
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import archspread.distance as distance
from archspread.cli import main
from archspread.distance import (
    DistanceWeights,
    block_eccentricities,
    distance_matrix,
    sequence_distance,
    step_distance,
    within_set_eccentricities,
)
from archspread.io import AnalysisBundle, write_bundle
from archspread.model import TransformationStep

from conftest import make_set, make_solution, make_step, random_set


def enc(name, *args):
    """A step over small int vocabularies, spelled as the parser would hold it."""
    return TransformationStep(f"op{name}", tuple(f"e{a}" for a in args))


W = DistanceWeights(0.5, 0.5)


def brute_levenshtein(a, b):
    """Oracle: full DP table, no optimizations."""
    m, n = len(a), len(b)
    t = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        t[i][0] = i
    for j in range(n + 1):
        t[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            t[i][j] = min(
                t[i - 1][j] + 1,
                t[i][j - 1] + 1,
                t[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return t[m][n]


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        DistanceWeights(0.5, 0.6)
    with pytest.raises(ValueError):
        DistanceWeights(-0.1, 1.1)


def test_identical_step_distance_zero():
    a = enc(0, 1, 2)
    assert step_distance(a, enc(0, 1, 2), W) == 0.0


def test_fully_different_step_distance_one():
    # Different name, completely different args.
    assert step_distance(enc(0, 1, 2), enc(1, 3, 4), W) == 1.0


def test_shared_prefix_args_derived_value():
    # Levenshtein([x,y],[x,z]) = 1 by hand enumeration; max length 2.
    # 0*0.5 + (1/2)*0.5 = 0.25
    assert step_distance(enc(0, 10, 11), enc(0, 10, 12), W) == pytest.approx(0.25)


def test_pad_rules():
    assert step_distance(None, None, W) == 0.0
    assert step_distance(None, enc(0), W) == 1.0
    assert step_distance(enc(0, 1), None, W) == 1.0


def test_empty_arg_lists_are_identical():
    assert step_distance(enc(0), enc(0), W) == 0.0


def test_one_empty_one_nonempty_args():
    # Forced by normalization: lev = longer length.
    assert step_distance(enc(0), enc(0, 1, 2), W) == pytest.approx(0.5)


def test_sequence_distance_identity():
    seq = (enc(0, 1), enc(1, 2, 3))
    assert sequence_distance(seq, seq, W) == 0.0
    assert sequence_distance((), (), W) == 0.0


def test_sequence_distance_all_positions_different():
    a = (enc(0, 1), enc(0, 1), enc(0, 1))
    b = (enc(1, 2), enc(1, 2), enc(1, 2))
    # Per-position distance is 1 by the endpoint rule; summed over 3 positions.
    per_position = [step_distance(x, y, W) for x, y in zip(a, b)]
    assert per_position == [1.0, 1.0, 1.0]
    assert sequence_distance(a, b, W) == 3.0


def test_sequence_distance_padding():
    assert sequence_distance((enc(0, 1),), (), W) == 1.0


def _enumerate_sequences(max_len=3, names=2, args_vocab=2):
    """All step sequences of length <= max_len over a tiny vocabulary.

    Each step: one of `names` names and 0..2 args over `args_vocab` symbols.
    """
    steps = []
    for name in range(names):
        arg_lists = [()]
        arg_lists += [(a,) for a in range(args_vocab)]
        arg_lists += list(itertools.product(range(args_vocab), repeat=2))
        steps.extend(enc(name, *a) for a in arg_lists)
    seqs = [()]
    for length in range(1, max_len + 1):
        # Full product is large; restrict per-position choices to a fixed
        # subset that still exercises every step kind.
        subset = steps[:: max(1, len(steps) // 5)]
        seqs.extend(itertools.product(subset, repeat=length))
    return seqs


def test_symmetry_and_identity_exhaustive_small():
    seqs = _enumerate_sequences(max_len=2)
    for a, b in itertools.product(seqs, repeat=2):
        d_ab = sequence_distance(a, b, W)
        assert d_ab == sequence_distance(b, a, W)
        length = max(len(a), len(b))
        assert 0.0 <= d_ab <= length + 1e-12
        padded_a = a + (None,) * (length - len(a))
        padded_b = b + (None,) * (length - len(b))
        assert (d_ab == 0.0) == (padded_a == padded_b)


step_strategy = st.builds(
    enc,
    st.integers(0, 2),
    *([st.integers(0, 2)] * 0),
) | st.builds(
    lambda n, a: enc(n, *a),
    st.integers(0, 2),
    st.lists(st.integers(0, 2), max_size=3),
)

seq_strategy = st.lists(step_strategy, max_size=5).map(tuple)


@given(seq_strategy, seq_strategy)
def test_property_symmetry(a, b):
    assert sequence_distance(a, b, W) == sequence_distance(b, a, W)


@given(seq_strategy, seq_strategy)
def test_property_bounds(a, b):
    d = sequence_distance(a, b, W)
    assert 0.0 <= d <= max(len(a), len(b)) + 1e-12


@given(seq_strategy, seq_strategy)
def test_property_name_channel_only_is_hamming(a, b):
    w = DistanceWeights(1.0, 0.0)
    length = max(len(a), len(b))
    pa = a + (None,) * (length - len(a))
    pb = b + (None,) * (length - len(b))
    hamming = sum(
        1.0
        for x, y in zip(pa, pb)
        if (x is None) != (y is None) or (x is not None and y is not None and x.name != y.name)
    )
    assert sequence_distance(a, b, w) == pytest.approx(hamming)


@given(seq_strategy, seq_strategy)
def test_property_arg_channel_only_is_sum_of_normalized_levenshtein(a, b):
    w = DistanceWeights(0.0, 1.0)
    length = max(len(a), len(b))
    pa = a + (None,) * (length - len(a))
    pb = b + (None,) * (length - len(b))
    total = 0.0
    for x, y in zip(pa, pb):
        if x is None and y is None:
            continue
        if x is None or y is None:
            total += 1.0
            continue
        longer = max(len(x.args), len(y.args))
        total += brute_levenshtein(x.args, y.args) / longer if longer else 0.0
    assert sequence_distance(a, b, w) == pytest.approx(total)


@settings(max_examples=200)
@given(seq_strategy, seq_strategy, seq_strategy)
def test_property_triangle_inequality_random(a, b, c):
    d_ab = sequence_distance(a, b, W)
    d_ac = sequence_distance(a, c, W)
    d_cb = sequence_distance(c, b, W)
    assert d_ab <= d_ac + d_cb + 1e-9


def test_distance_matrix_singleton():
    s = make_set(solutions=(make_solution("a", steps=(make_step(), make_step())),))
    dm = distance_matrix(s, W)
    assert dm.values.tolist() == [[0.0]]
    assert dm.l_pad == 2


def test_distance_matrix_duplicate_sequences():
    steps = (make_step("x", ("p",)),)
    s = make_set(
        solutions=(make_solution("a", steps=steps), make_solution("b", steps=steps))
    )
    dm = distance_matrix(s, W)
    assert dm.values.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_distance_matrix_against_positionwise_oracle(rng):
    for trial in range(20):
        s = random_set(rng, n=6)
        dm = distance_matrix(s, W)
        assert dm.l_pad == max(len(sol.sequence) for sol in s.solutions)

        seqs = [sol.sequence for sol in s.solutions]
        for i in range(len(seqs)):
            for j in range(len(seqs)):
                length = max(len(seqs[i]), len(seqs[j]))
                expected = 0.0
                for k in range(length):
                    x = seqs[i][k] if k < len(seqs[i]) else None
                    y = seqs[j][k] if k < len(seqs[j]) else None
                    if x is None and y is None:
                        continue
                    if x is None or y is None:
                        expected += 1.0
                        continue
                    name_part = 0.0 if x.name == y.name else 1.0
                    longer = max(len(x.args), len(y.args))
                    arg_part = brute_levenshtein(x.args, y.args) / longer if longer else 0.0
                    expected += 0.5 * name_part + 0.5 * arg_part
                assert dm.values[i][j] == pytest.approx(expected, abs=1e-12)


def per_occurrence_step_ids(solutions):
    """Oracle: number every occurrence's (name, args) in first-seen order, from 1."""
    step_id, first = {}, []
    rows = []
    for sol in solutions:
        row = []
        for step in sol.sequence:
            key = (step.name, step.args)
            if key not in step_id:
                step_id[key] = len(step_id) + 1
                first.append(step)
            row.append(step_id[key])
        rows.append(row)
    ids = np.zeros((len(rows), max(map(len, rows), default=0)), dtype=np.intp)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    return ids, first


def test_step_ids_number_distinct_steps_in_first_seen_order():
    rng = random.Random(8)
    # random_set builds a new TransformationStep for every occurrence, so
    # equal steps are distinct objects here.
    sets = [random_set(rng, n=10, max_len=6, name_vocab=3, arg_vocab=3) for _ in range(3)]
    solutions = [sol for s in sets for sol in s.solutions]
    occurrences = [step for sol in solutions for step in sol.sequence]
    assert len(set(occurrences)) < len({id(step) for step in occurrences})
    expected_ids, expected_steps = per_occurrence_step_ids(solutions)

    ids, steps = distance._step_ids(solutions)
    assert np.array_equal(ids, expected_ids)
    assert steps == expected_steps


def pairs_equal_sequence_distance(s, w):
    dm = distance_matrix(s, w)
    for i, a in enumerate(s.solutions):
        for j, b in enumerate(s.solutions):
            assert dm.values[i, j] == sequence_distance(a.sequence, b.sequence, w)


@pytest.mark.parametrize("w_pred", [0.0, 0.3, 0.5, 1.0])
def test_distance_matrix_entries_equal_sequence_distance_exactly(w_pred):
    rng = random.Random(2024)
    w = DistanceWeights(w_pred, 1.0 - w_pred)
    for _ in range(10):
        pairs_equal_sequence_distance(
            random_set(rng, n=12, max_len=6, name_vocab=4, arg_vocab=5), w
        )
    # One token as a step name and as an argument.
    x, y = make_step("x", ("y",)), make_step("y", ("x",))
    pairs_equal_sequence_distance(
        make_set(
            solutions=(
                make_solution("a", steps=(x, y)),
                make_solution("b", steps=(y, x)),
                make_solution("c", steps=(make_step("x", ("x", "y")), make_step("y", ("y",)))),
            )
        ),
        w,
    )
    # Argument tuples that differ only in order.
    ab, ba = make_step("op", ("a", "b")), make_step("op", ("b", "a"))
    pairs_equal_sequence_distance(
        make_set(
            solutions=(
                make_solution("a", steps=(ab,)),
                make_solution("b", steps=(ba,)),
                make_solution("c", steps=(ab, ba)),
            )
        ),
        w,
    )


def test_eccentricities_equal_row_maxima_of_each_sets_own_matrix():
    rng = random.Random(77)
    sets = [random_set(rng, n=rng.randint(1, 9), max_len=rng.randint(0, 6)) for _ in range(4)]
    everything = make_set(solutions=tuple(sol for s in sets for sol in s.solutions))
    joint = distance_matrix(everything, W)
    for s, sliced, blocked, shared in zip(
        sets,
        block_eccentricities(joint, sets),
        within_set_eccentricities(sets, W),
        distance._within_sets(sets, W, distance._matrix),
    ):
        own = distance_matrix(s, W)
        assert np.array_equal(shared, own.values)
        for ecc in (sliced, blocked):
            assert np.array_equal(ecc, own.values.max(axis=1))


def test_distance_matrix_values_are_read_only():
    s = make_set(
        solutions=(make_solution("a", steps=(make_step("x"),)), make_solution("b"))
    )
    dm = distance_matrix(s, W)
    assert dm.values.dtype == np.float64
    with pytest.raises(ValueError):
        dm.values[0, 1] = 0.0


@given(st.lists(st.lists(st.integers(0, 3), max_size=6).map(tuple), min_size=1, max_size=12))
def test_simargs_table_matches_full_dp_oracle(args):
    def simargs(a, b):
        longer = max(len(a), len(b))
        return brute_levenshtein(a, b) / longer if longer else 0.0

    table = distance._simargs_table(args)
    assert table.tolist() == [[simargs(a, b) for b in args] for a in args]


def all_distinct_sets(n, length=5):
    """Two sets of ``n`` solutions in which every step has its own first argument."""
    return [
        make_set(
            label=f"s{k}",
            solutions=tuple(
                make_solution(
                    f"s{k}_{i}",
                    objectives=(float(i),),
                    steps=tuple(
                        make_step(f"op{(i + p) % 3}", (f"u{k}_{i}_{p}", f"e{p % 2}"))
                        for p in range(length)
                    ),
                )
                for i in range(n)
            ),
        )
        for k in range(2)
    ]


def test_all_distinct_steps_entries_equal_sequence_distance():
    sets = all_distinct_sets(20)
    for s, values in zip(sets, distance._within_sets(sets, W, distance._matrix)):
        for i, a in enumerate(s.solutions):
            for j, b in enumerate(s.solutions):
                assert values[i, j] == sequence_distance(a.sequence, b.sequence, W)


def test_all_distinct_steps_indicators_finish_in_time(tmp_path):
    # 2 x 400 solutions, 4 000 distinct steps: the work of a table over every
    # pair of distinct steps grows with their square, a per-position one does not.
    path = tmp_path / "distinct.json"
    bundle = AnalysisBundle(name="all-distinct", sets=tuple(all_distinct_sets(400)))
    path.write_text(write_bundle(bundle))
    start = time.perf_counter()
    assert main(["indicators", str(path), "-o", str(tmp_path / "report.json")]) == 0
    assert time.perf_counter() - start < 10.0
