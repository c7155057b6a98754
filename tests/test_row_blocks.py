"""The numeric layers sweep n x n matrices by blocks of rows.

Results at the block boundaries must match unblocked computations, and the
layers must hold at most one n x n work array beside the distance matrix.
Parsing, before them, must peak near the size of the bundle's text: no
decoded dict per refactoring step or tree edge.
"""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import archspread.distance as distance
import archspread.projection as projection
from archspread.cli import main
from archspread.distance import (
    _ROW_BLOCK,
    DistanceMatrix,
    DistanceWeights,
    distance_matrix,
    distinct_sequences,
)
from archspread.indicators import indicators_for
from archspread.io import AnalysisBundle, parse_bundle, write_bundle
from archspread.model import SolutionSet
from archspread.projection import mds_project
from archspread.synth import generate_tree

from conftest import make_set, random_set

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
    assert np.array_equal(distance._within_sets(sets, W, distance._matrix)[1], want)
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


def test_parse_holds_no_decoded_dict_per_step(tmp_path):
    path = tmp_path / "bundle.json"
    synth = ["synth", "--sets", "2", "--n", "1000", "--seed", "3", "--depth", "11"]
    assert main(synth + ["-o", str(path)]) == 0
    text = path.read_text()
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


def test_numeric_layers_hold_one_n_by_n_work_array(tmp_path, monkeypatch):
    path = tmp_path / "bundle.json"
    synth = ["synth", "--sets", "2", "--n", "1000", "--seed", "3", "--depth", "11"]
    assert main(synth + ["-o", str(path)]) == 0
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

    # compare and mds measure one solution per distinct sequence.
    representatives, index = distinct_sequences(everything.solutions)
    m = len(representatives)
    assert m == len({sol.sequence for sol in everything.solutions}) == 1753
    built = []

    def recording(solution_set, w):
        built.append(distance_matrix(solution_set, w))
        return built[-1]

    monkeypatch.setattr(distance, "distance_matrix", recording)
    assert main(["mds", str(path), "-o", str(tmp_path / "report.json")]) == 0
    assert [joint.values.shape for joint in built] == [(m, m)]
    assert built[0].ids == tuple(sol.id for sol in representatives)
    _, peak = extra_peak(lambda: mds_project(built[0], index))
    assert peak <= 1.3 * m * m * 8  # b over the distinct rows, then blocks of rows
