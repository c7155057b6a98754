"""The numeric layers sweep n x n matrices by blocks of rows.

Results at the block boundaries must match unblocked computations, and the
layers must hold at most one n x n work array beside the distance matrix.
The argument DP of a position sweeps its tables by blocks of rows too.
Parsing, before them, must peak near the size of the bundle's text: no
decoded dict per refactoring step or tree edge.
"""

import argparse
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import archspread.cli as cli
import archspread.distance as distance
import archspread.projection as projection
from archspread.cli import main
from archspread.distance import (
    _ROW_BLOCK,
    DistanceMatrix,
    DistanceWeights,
    distance_matrix,
    joint_squares,
    step_distance,
    within_set_eccentricities,
)
from archspread.indicators import indicators_for
from archspread.io import AnalysisBundle, parse_bundle, write_bundle
from archspread.model import SolutionSet
from archspread.projection import mds_project
from archspread.synth import generate_tree

from conftest import make_set, make_solution, make_step, random_set

W = DistanceWeights(0.5, 0.5)


def unblocked_matrix(sets, rows):
    """All position tables gathered over the whole of ``rows`` and summed in position order."""
    solutions = [sol for s in sets for sol in s.solutions]
    ids, steps = distance._step_ids(solutions)
    columns = distance._column_tables(ids, steps, W)
    l_pad = max(len(sol.sequence) for sol in solutions[rows])
    n = rows.stop - rows.start
    out = np.zeros((n, n))
    for index, table in columns[:l_pad]:
        c = index[rows]
        out += table.take(c, axis=0).take(c, axis=1)
    return out


def unblocked_mds(d):
    """``mds_project`` on whole matrices: separate d², b and residual arrays."""
    d2 = d**2
    mean = d2.mean(axis=1)
    b = d2 - mean[:, None]
    b -= mean[None, :]
    b += mean.mean()
    b *= -0.5
    evals = np.linalg.eigvalsh(b)
    vectors = projection._top_two_lanczos(b, evals)
    if vectors is None:
        evals, evecs = np.linalg.eigh(b)
        vectors = evecs[:, :-3:-1]
    top = np.clip(evals[:-3:-1], 0.0, None)
    coords = vectors * np.sqrt(top)
    for axis in range(2):
        col = coords[:, axis]
        nonzero = np.nonzero(col)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            coords[:, axis] = -col
    coords = coords + 0.0
    positive_mass = float(np.sum(evals[evals > 0]))
    share = min(float(np.sum(top) / positive_mass) if positive_mass > 0 else 1.0, 1.0)
    x, y = coords[:, 0], coords[:, 1]
    embedded = np.sqrt((x[:, None] - x) ** 2 + (y[:, None] - y) ** 2)
    stress = float(np.sqrt(np.sum((embedded - d) ** 2) / np.sum(d2)))
    return coords, share, stress


@pytest.mark.parametrize("n", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
def test_blocked_layers_match_unblocked_oracles_at_block_boundaries(n):
    rng = random.Random(n)
    # A small set first, so the large set's rows start inside the joint step ids.
    sets = [
        random_set(rng, n=5, max_len=9, name_vocab=5, arg_vocab=7),
        random_set(rng, n=n, max_len=9, name_vocab=5, arg_vocab=7),
    ]
    want = unblocked_matrix(sets, slice(5, 5 + n))
    assert np.array_equal(within_set_eccentricities(sets, W)[1], want.max(axis=1))
    got = distance_matrix(sets[1], W)
    assert np.array_equal(got.values, want)
    everything = make_set(solutions=sets[0].solutions + sets[1].solutions)
    assert np.array_equal(
        distance_matrix(everything, W).values, unblocked_matrix(sets, slice(0, 5 + n))
    )

    max_d = max(len(sol.sequence) for sol in everything.solutions)
    for all_pairs in (False, True):
        ecc = np.full(n, want.max()) if all_pairs else want.max(axis=1)
        mas = math.sqrt(math.fsum(float(e) ** 2 for e in ecc) / (n * max_d**2))
        assert indicators_for(sets, W, all_pairs=all_pairs)[1].mas == mas

    proj = mds_project(got)
    coords, share, stress = unblocked_mds(want)
    assert np.array_equal(np.array(proj.coords), coords)
    assert proj.eigenvalue_share == share
    assert proj.stress == pytest.approx(stress, rel=0, abs=1e-15)


def sets_sharing_sequences(rng, m):
    """Three sets over ``m`` distinct sequences: each set repeats some, and the last
    two also draw sequences of the sets before them."""
    pool = {}
    while len(pool) < m:
        (sol,) = random_set(rng, n=1, max_len=9, name_vocab=5, arg_vocab=7).solutions
        pool.setdefault(sol.sequence, None)
    pool = list(pool)
    draws = [
        pool[: m // 2] + rng.choices(pool[: m // 2], k=7),
        pool[m // 2 :] + rng.choices(pool, k=11),
        rng.choices(pool, k=m // 3),
    ]
    sets = []
    for k, sequences in enumerate(draws):
        rng.shuffle(sequences)
        solutions = tuple(
            make_solution(f"s{k}_{i}", (float(i),), seq) for i, seq in enumerate(sequences)
        )
        sets.append(make_set(label=f"s{k}", solutions=solutions))
    return sets


@pytest.mark.parametrize("m", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
def test_joint_pass_matches_the_matrix_and_each_sets_sweep_at_block_boundaries(m):
    sets = sets_sharing_sequences(random.Random(m), m)
    solutions = [sol for s in sets for sol in s.solutions]
    first = {}
    for sol in solutions:
        first.setdefault(sol.sequence, sol)
    # The reference joint matrix: one solution per distinct sequence, in order.
    want = distance_matrix(make_set(solutions=tuple(first.values())), W)
    assert len(want) == m

    # mds and compare square the matrix as its blocks are filled, and MDS
    # gets the distances back from the kernel block by block for the stress.
    squares, index, eccentricities = joint_squares(sets, W)
    assert len(squares) == m
    assert [list(first)[row] for row in index] == [sol.sequence for sol in solutions]
    for got, own in zip(eccentricities, within_set_eccentricities(sets, W), strict=True):
        assert np.array_equal(got, own)
    assert np.array_equal(squares.squares, want.values * want.values)
    got, want = mds_project(squares, index), mds_project(want, index)
    assert got.coords == want.coords
    assert got.eigenvalue_share == want.eigenvalue_share
    assert got.stress == want.stress
    with pytest.raises(ValueError, match="read-only"):
        mds_project(squares, index)  # the squares are used up


@pytest.mark.parametrize("repeats", [None, (1, 3, 2)], ids=["unit", "mixed"])
def test_index_alone_gives_the_weights_of_the_joint_squares(repeats):
    m = _ROW_BLOCK + 1
    sets = sets_sharing_sequences(random.Random(m), m)
    first = {}
    for sol in (sol for s in sets for sol in s.solutions):
        first.setdefault(sol.sequence, sol)
    # Weights other than the sets' own counts: each row once, or 1 to 3 times.
    index = np.arange(m) if repeats is None else np.repeat(np.arange(m), np.resize(repeats, m))
    squares, _, _ = joint_squares(sets, W)
    got = mds_project(squares, index)
    want = mds_project(distance_matrix(make_set(solutions=tuple(first.values())), W), index)
    assert got.coords == want.coords
    assert got.stress == want.stress
    assert got.eigenvalue_share == want.eigenvalue_share


@pytest.mark.parametrize("i, j", [(0, 2 * _ROW_BLOCK), (_ROW_BLOCK + 1, 2 * _ROW_BLOCK)])
def test_distance_matrix_check_sees_an_asymmetry_in_any_block(i, j):
    n = 2 * _ROW_BLOCK + 1
    values = np.ones((n, n)) - np.eye(n)
    values[j, i] = 0.5
    ids = tuple(f"p{k}" for k in range(n))
    with pytest.raises(ValueError, match=rf"^asymmetry at \('p{i}', 'p{j}'\)$"):
        DistanceMatrix(ids, values, 1)


def extra_peak(fn):
    """``fn()`` and the most memory it held at once beyond what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def synth_2000(tmp_path_factory):
    """``synth --sets 2 --n 1000 --seed 3 --depth 11``: 2 000 solutions, 1 753 distinct sequences."""
    path = tmp_path_factory.mktemp("synth") / "bundle.json"
    synth = ["synth", "--sets", "2", "--n", "1000", "--seed", "3", "--depth", "11"]
    assert main(synth + ["-o", str(path)]) == 0
    return path


def test_parse_holds_no_decoded_dict_per_step(synth_2000):
    text = synth_2000.read_text()
    parse_bundle(text)  # load whatever the first parse loads
    _, peak = extra_peak(lambda: parse_bundle(text))
    # Each step is interned while it is decoded; a dict per step peaks at ~3.5.
    assert peak <= 1.25 * len(text)


def test_parse_holds_no_decoded_dict_per_tree_edge():
    tree = generate_tree(7, 11, 2, 6, 9)
    rng = random.Random(7)
    doc = json.loads(write_bundle(AnalysisBundle("refs", (), tree)))
    doc["sets"] = [
        {
            "label": f"s{k}",
            "objective_names": ["f0", "f1"],
            "solutions": [
                {"id": f"s{k}_{i}", "objectives": [rng.random(), rng.random()], "node": node}
                for i, node in enumerate(rng.sample(tree.nodes, 250))
            ],
        }
        for k in range(2)
    ]
    text = json.dumps(doc, indent=2)
    parse_bundle(text)  # load whatever the first parse loads
    _, peak = extra_peak(lambda: parse_bundle(text))
    # Each edge is decoded into its (from, to, step) triple; a dict per edge peaks at ~3.6.
    assert peak <= 3.0 * len(text)


def test_numeric_layers_hold_one_n_by_n_work_array(synth_2000, tmp_path, monkeypatch):
    path = synth_2000
    sets = list(parse_bundle(path.read_text()).sets)
    everything = SolutionSet("all", sets[0].objective_names, sets[0].solutions + sets[1].solutions)
    unit = len(everything) ** 2 * 8  # bytes of one n x n float64 array; n = 2 000

    # Load whatever the first call of each layer loads, outside the traced calls.
    small = [make_set(solutions=s.solutions[:3]) for s in sets]
    mds_project(distance_matrix(small[0], W))
    indicators_for(small, W)

    dm, peak = extra_peak(lambda: distance_matrix(everything, W))
    assert peak <= 1.3 * unit  # the matrix itself, then blocks of rows
    _, peak = extra_peak(lambda: mds_project(dm))
    assert peak <= 1.3 * unit  # b, then blocks of rows
    _, peak = extra_peak(lambda: indicators_for(sets, W))
    assert peak <= 0.15 * unit  # no set's matrix: blocks of rows only

    # compare and mds measure one solution per distinct sequence, once.
    m = len({sol.sequence for sol in everything.solutions})
    assert m == 1753
    (squares, index, _), peak = extra_peak(lambda: joint_squares(sets, W))
    assert squares.squares.shape == (m, m)
    assert peak <= 1.3 * m * m * 8  # the squares themselves, then blocks of rows
    _, peak = extra_peak(lambda: mds_project(squares, index))
    assert peak <= 1.3 * m * m * 8  # b in the squares, then blocks of rows

    # No command builds a DistanceMatrix: indicators sweeps each set by
    # blocks of rows, and mds and compare make one joint pass each.
    built = []

    def recording(name, fn):
        def record(*args):
            built.append(name)
            return fn(*args)

        return record

    init = recording("DistanceMatrix", DistanceMatrix.__init__)
    monkeypatch.setattr(DistanceMatrix, "__init__", init)
    monkeypatch.setattr(distance, "joint_squares", recording("joint_squares", joint_squares))
    for command in ("indicators", "mds", "compare"):
        assert main([command, str(path), "-o", str(tmp_path / f"{command}.json")]) == 0
    assert built == ["joint_squares", "joint_squares"]


def test_mds_and_compare_hold_one_m_by_m_array_through_the_eigen_step(synth_2000, monkeypatch):
    bundle = parse_bundle(synth_2000.read_text())
    small = AnalysisBundle("small", tuple(make_set(solutions=s.solutions[:3]) for s in bundle.sets))
    loaded = [small]
    monkeypatch.setattr(cli, "_load", lambda args: (loaded[0], W))
    args = argparse.Namespace(shared_maxd=True, mas_allpairs=False)
    cli._analyze(args, project=True)  # load whatever the first call loads

    loaded[0] = bundle
    (_, _, proj), peak = extra_peak(lambda: cli._analyze(args, project=True))
    assert len(proj.coords) == 2000
    m = 1753
    # The squared joint matrix is centred in place, and the distances come
    # back from the kernel by blocks for the stress; holding the distances
    # through the eigen step as well peaks at ~2.1. eigvalsh's own copy is
    # made by LAPACK's wrapper, outside what tracemalloc sees.
    assert peak <= 1.4 * m * m * 8


def test_one_long_argument_list_costs_its_length_not_its_square():
    # One position holds 100 distinct 3-token argument lists and one of
    # `width` tokens. A DP per two arities does ~3 x width steps for each
    # short list against the long one; one DP over every pair at once did
    # width x width steps for each pair, on (width + 1) x 101 x 101 planes.
    width = 500
    solutions = [
        make_solution(f"s{i}", steps=(make_step("op", (f"t{i % 40}", f"b{i % 7}", f"t{i % 3}")),))
        for i in range(100)
    ]
    long_step = make_step("op", tuple(f"t{k % 40}" for k in range(width)))
    ids, steps = distance._step_ids([*solutions, make_solution("long", steps=(long_step,))])
    distance._column_tables(ids, steps, W)  # load whatever the first call loads

    start = time.perf_counter()
    (_, table), = distance._column_tables(ids, steps, W)
    # ~8 us per token here; the DP over every pair at once took ~70 ms per token.
    assert time.perf_counter() - start < width * 0.2e-3
    assert table[-1].tolist() == [step_distance(long_step, step, W) for step in steps]

    _, peak = extra_peak(lambda: distance._column_tables(ids, steps, W))
    # Blocks of 64 short lists against one arity: ~1 MB. One plane over every
    # pair at once held (width + 1) x 101 x 101 ints, 41 MB.
    assert peak <= 4 * 2**20


def test_mds_and_compare_draw_the_same_map_within_a_minute(synth_2000, tmp_path):
    # The joint pass squares its m x m matrix in place, and MDS recomputes the
    # distances by blocks for the stress; mds and compare share that one map.
    # Each command takes ~1 s on a 2-vCPU host.
    maps = []
    for command in ("mds", "compare"):
        out, svg = tmp_path / f"{command}.json", tmp_path / f"{command}.svg"
        start = time.perf_counter()
        assert main([command, str(synth_2000), "-o", str(out), "--svg", str(svg)]) == 0
        assert time.perf_counter() - start < 60
        maps.append(json.loads(out.read_text())["projections"])
    assert maps[0] == maps[1]
