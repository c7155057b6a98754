import math
import random

import numpy as np
import pytest

import archspread.projection as projection
from archspread.distance import DistanceMatrix, DistanceWeights, distance_matrix
from archspread.projection import mds_project

from conftest import random_set


def dm_from_points(points):
    """Euclidean distances of a 2D configuration; the MDS recovery oracle."""
    n = len(points)
    values = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            values[i][j] = math.dist(points[i], points[j])
    l_pad = math.ceil(max(max(r) for r in values)) or 1
    return DistanceMatrix(
        ids=tuple(f"p{i}" for i in range(n)),
        values=tuple(tuple(row) for row in values),
        l_pad=l_pad,
    )


def embedded_distances(proj):
    coords = np.array(proj.coords)
    return np.sqrt(
        np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
    )


def test_single_point():
    dm = DistanceMatrix(ids=("a",), values=((0.0,),), l_pad=1)
    proj = mds_project(dm)
    assert proj.coords == ((0.0, 0.0),)
    assert proj.stress == 0.0


def test_two_points_exact():
    dm = DistanceMatrix(
        ids=("a", "b"), values=((0.0, 2.0), (2.0, 0.0)), l_pad=2
    )
    proj = mds_project(dm)
    assert proj.stress < 1e-12
    assert embedded_distances(proj)[0][1] == pytest.approx(2.0, abs=1e-12)


def test_unit_square_recovered():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    dm = dm_from_points(square)
    proj = mds_project(dm)
    got = embedded_distances(proj)
    want = np.array(dm.values)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
    assert proj.stress < 1e-9


def test_random_2d_cloud_is_exactly_embeddable():
    rng = random.Random(42)
    points = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(50)]
    dm = dm_from_points(points)
    proj = mds_project(dm)
    got = embedded_distances(proj)
    want = np.array(dm.values)
    mask = want > 0
    assert np.max(np.abs(got[mask] - want[mask]) / want[mask]) < 1e-6
    assert proj.stress < 1e-6
    assert proj.eigenvalue_share >= 0.999


def test_sign_convention_is_deterministic():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    dm = dm_from_points(square)
    a = mds_project(dm)
    b = mds_project(dm)
    assert a.coords == b.coords
    for axis in range(2):
        col = [c[axis] for c in a.coords]
        nonzero = [v for v in col if v != 0.0]
        if nonzero:
            assert nonzero[0] > 0


def test_stress_invariant_under_rigid_motion_of_input_configuration():
    rng = random.Random(7)
    points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(12)]
    theta = 1.1
    moved = [
        (
            math.cos(theta) * x - math.sin(theta) * y + 5.0,
            math.sin(theta) * x + math.cos(theta) * y - 2.0,
        )
        for x, y in points
    ]
    # Rigid motion leaves distances, hence the projection's stress, unchanged.
    assert mds_project(dm_from_points(points)).stress == pytest.approx(
        mds_project(dm_from_points(moved)).stress, abs=1e-9
    )


def test_eigenvalue_share_never_exceeds_one():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(2, 12)
        # Random non-Euclidean symmetric matrices.
        values = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                values[i][j] = values[j][i] = rng.uniform(0.1, 3.0)
        dm = DistanceMatrix(
            ids=tuple(f"x{i}" for i in range(n)),
            values=tuple(tuple(r) for r in values),
            l_pad=3,
        )
        proj = mds_project(dm)
        assert 0.0 <= proj.eigenvalue_share <= 1.0
        assert proj.stress >= 0.0


def test_degenerate_all_zero_matrix():
    n = 3
    dm = DistanceMatrix(
        ids=("a", "b", "c"),
        values=tuple(tuple(0.0 for _ in range(n)) for _ in range(n)),
        l_pad=1,
    )
    proj = mds_project(dm)
    assert all(c == (0.0, 0.0) for c in proj.coords)
    assert proj.diagnostics


def centring_matrix_mds(d):
    """Reference MDS: double centring with the matrix J, eigenpairs argsorted
    to descending order. Returns (coords, stress, share, descending evals).

    Stress comes from the direct 2-D distances: the Gram identity
    sqrt(|a|² + |b|² - 2a·b) loses about sqrt(eps) to cancellation (stress
    3.9e-9 instead of 2.5e-16 on an exactly embeddable 3-point set)."""
    n = len(d)
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d**2) @ j
    b = (b + b.T) / 2.0
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    top = np.clip(evals[:2], 0.0, None)
    coords = evecs[:, :2] * np.sqrt(top)
    for axis in range(2):
        col = coords[:, axis]
        nonzero = np.nonzero(col)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            coords[:, axis] = -col
    positive_mass = float(np.sum(evals[evals > 0]))
    share = min(float(np.sum(top) / positive_mass) if positive_mass > 0 else 1.0, 1.0)
    embedded = np.hypot(*(c[:, None] - c for c in coords.T))
    denom = float(np.sum(d**2))
    stress = float(np.sqrt(np.sum((embedded - d) ** 2) / denom)) if denom > 0 else 0.0
    return coords, embedded, stress, share, evals


def random_symmetric_matrices(rng):
    for _ in range(150):
        n = rng.randint(2, 60)
        values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                values[i, j] = values[j, i] = rng.uniform(0.0, 3.0)
        yield DistanceMatrix(tuple(f"x{i}" for i in range(n)), values, 3)


def sequence_distance_matrices(rng):
    for _ in range(150):
        s = random_set(rng, n=rng.randint(2, 40), max_len=6)
        yield distance_matrix(s, DistanceWeights(0.5, 0.5))


def assert_same_axis_up_to_sign(got, want):
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12) or np.allclose(
        got, -want, rtol=1e-12, atol=1e-12
    )


def paper_scale_sequence_distance_matrices(rng):
    for n in (100, 250, 400, 554, 600):
        s = random_set(rng, n=n, max_len=9, name_vocab=5, arg_vocab=7)
        yield distance_matrix(s, DistanceWeights(0.5, 0.5))


def compare_with_centring_matrix_oracle(matrices):
    """Check ``mds_project`` against the oracle; returns how many axes were compared."""
    compared = 0
    for dm in matrices:
        proj = mds_project(dm)
        want_coords, want_embedded, want_stress, want_share, evals = centring_matrix_mds(
            dm.values
        )
        assert proj.eigenvalue_share == pytest.approx(want_share, rel=1e-12, abs=1e-12)
        if len(evals) > 2 and evals[1] - evals[2] <= 1e-9 * abs(evals[0]):
            continue  # the second axis is not unique
        compared += 1
        assert np.allclose(proj.stress, want_stress, rtol=1e-12, atol=1e-12)
        assert np.allclose(embedded_distances(proj), want_embedded, rtol=1e-12, atol=1e-12)
        # Where the top eigenvalues are well apart and positive, the axes are
        # fixed up to sign, and x must belong to the largest.
        got = np.array(proj.coords)
        apart = 1e-3 * evals[0]
        if evals[0] - evals[1] > apart:
            assert_same_axis_up_to_sign(got[:, 0], want_coords[:, 0])
            if evals[1] > apart and (len(evals) == 2 or evals[1] - evals[2] > apart):
                assert_same_axis_up_to_sign(got[:, 1], want_coords[:, 1])
    return compared


@pytest.fixture
def branches(monkeypatch):
    """Counts of ``mds_project`` calls whose eigenvectors came from Lanczos or from eigh."""
    counts = {"lanczos": 0, "eigh": 0}
    lanczos = projection._top_two_lanczos

    def counting(b, evals):
        vectors = lanczos(b, evals)
        counts["eigh" if vectors is None else "lanczos"] += 1
        return vectors

    monkeypatch.setattr(projection, "_top_two_lanczos", counting)
    return counts


@pytest.mark.parametrize("matrices", [random_symmetric_matrices, sequence_distance_matrices])
def test_mds_matches_centring_matrix_oracle(matrices, branches):
    assert compare_with_centring_matrix_oracle(matrices(random.Random(2024))) >= 100
    # Both ways to the eigenvectors are checked against the oracle.
    assert branches["lanczos"] >= 100 and branches["eigh"] >= 1


def test_mds_matches_centring_matrix_oracle_up_to_paper_scale(branches):
    matrices = paper_scale_sequence_distance_matrices(random.Random(554))
    assert compare_with_centring_matrix_oracle(matrices) == 5
    assert branches == {"lanczos": 5, "eigh": 0}


def eigh_coords(d):
    """Coordinates from the top two eigenvectors of one full ``eigh``, sign rule applied."""
    d2 = d**2
    mean = d2.mean(axis=1)
    evals, evecs = np.linalg.eigh(-0.5 * (d2 - mean[:, None] - mean[None, :] + mean.mean()))
    coords = evecs[:, :-3:-1] * np.sqrt(np.clip(evals[:-3:-1], 0.0, None))
    for axis in range(2):
        col = coords[:, axis]
        nonzero = np.nonzero(col)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            coords[:, axis] = -col
    return coords + 0.0


def test_equidistant_points_take_the_eigh_path_bit_for_bit(branches):
    # Every pair at distance 1: lambda_1 = lambda_2, so no top-two axis is unique.
    n = 40
    values = np.ones((n, n)) - np.eye(n)
    proj = mds_project(DistanceMatrix(tuple(f"p{i}" for i in range(n)), values, 1))
    assert branches == {"lanczos": 0, "eigh": 1}
    assert np.array_equal(np.array(proj.coords), eigh_coords(values))


def test_lanczos_coordinates_match_the_eigh_path(branches, monkeypatch):
    dm = next(paper_scale_sequence_distance_matrices(random.Random(3)))
    got = mds_project(dm)
    assert branches == {"lanczos": 1, "eigh": 0}
    monkeypatch.setattr(projection, "_top_two_lanczos", lambda b, evals: None)
    want = mds_project(dm)
    assert np.max(np.abs(np.array(got.coords) - np.array(want.coords))) <= 1e-13
    assert got.stress == pytest.approx(want.stress, rel=0, abs=1e-15)
    assert got.eigenvalue_share == pytest.approx(want.eigenvalue_share, rel=0, abs=1e-15)


def expanded(dm, index):
    """``dm`` with row and column ``index[i]`` as row and column ``i``."""
    ids = tuple(f"{dm.ids[a]}.{k}" for k, a in enumerate(index))
    return DistanceMatrix(ids, dm.values[np.ix_(index, index)], dm.l_pad)


def test_one_distinct_point_five_times_is_degenerate():
    dm = DistanceMatrix(("a",), ((0.0,),), l_pad=1)
    proj = mds_project(dm, [0] * 5)
    want = mds_project(expanded(dm, [0] * 5))
    assert proj.coords == ((0.0, 0.0),) * 5
    assert (proj.stress, proj.eigenvalue_share) == (0.0, 1.0)
    assert (want.stress, want.eigenvalue_share) == (0.0, 1.0)
    assert proj.diagnostics == want.diagnostics
    assert proj.diagnostics == (
        "degenerate matrix: no positive eigenvalue mass, all-zero coordinates",
    )
    # A single solution is no repeated point.
    assert mds_project(dm).diagnostics == ()


def test_two_distinct_points_five_times_match_the_repeated_matrix():
    dm = DistanceMatrix(("a", "b"), ((0.0, 2.0), (2.0, 0.0)), l_pad=2)
    index = [0, 0, 1, 1, 1]
    proj = mds_project(dm, index)
    got = np.array(proj.coords)
    # The weighted centroid sits 3/5 and 2/5 of the way from each point.
    assert np.allclose(got, [[1.2, 0.0]] * 2 + [[-0.8, 0.0]] * 3, rtol=0, atol=1e-12)
    # The same weights in another order give the same map, point by point:
    # the computation and the axis signs follow the rows of dm.
    a, b = proj.coords[0], proj.coords[-1]
    shuffled = mds_project(dm, [1, 0, 1, 1, 0])
    assert shuffled.coords == (b, a, b, b, a)
    assert (shuffled.stress, shuffled.eigenvalue_share) == (proj.stress, proj.eigenvalue_share)
    assert proj.stress <= 1e-15
    assert (proj.eigenvalue_share, proj.diagnostics) == (1.0, ())

    want = mds_project(expanded(dm, index))
    # The second axis belongs to a zero eigenvalue, computed as rounding noise.
    assert np.allclose(got[:, 0], np.array(want.coords)[:, 0], rtol=0, atol=1e-12)
    assert np.all(got[:, 1] == 0.0)
    assert np.all(np.array(want.coords)[:, 1] == 0.0)
    assert want.stress <= 1e-15
    assert (want.eigenvalue_share, want.diagnostics) == (1.0, ())


@pytest.mark.parametrize(
    "size, index, message",
    [
        (0, None, "empty distance matrix"),
        (3, [0, 1, 1], "leaves row 2 of the distance matrix unused"),
        (3, [1, 1], "leaves row 0 of the distance matrix unused"),
        (3, np.array([], dtype=int), "leaves row 0 of the distance matrix unused"),
        (3, [1, -1, 1, 2, 0], r"rows in \[0, 3\), got -1\.\.2"),
        (3, [0, 1, 2, 3], r"rows in \[0, 3\), got 0\.\.3"),
        (3, [0.0, 1.0, 2.0], "1-D integer array, got 1-D float64"),
        (3, [True, True, True], "1-D integer array, got 1-D bool"),
        (3, [[0, 1, 2]], "1-D integer array, got 2-D int"),
        (3, [], "1-D integer array, got 1-D float64"),
    ],
    ids=[
        "empty-matrix", "row-unused", "too-short", "empty-int-index", "negative",
        "past-the-end", "float", "bool", "2-D", "empty-list",
    ],
)
def test_index_that_does_not_name_each_row_is_rejected_before_numeric_work(
    monkeypatch, size, index, message
):
    dm = DistanceMatrix(tuple("abc"[:size]), np.ones((size, size)) - np.eye(size), l_pad=1)

    def numeric_work(*args, **kwargs):
        raise AssertionError("numeric work began")

    monkeypatch.setattr(np.linalg, "eigvalsh", numeric_work)
    with pytest.raises(ValueError, match=message):
        mds_project(dm, index)


def test_unsigned_index_names_rows():
    dm = DistanceMatrix(("a", "b"), ((0.0, 2.0), (2.0, 0.0)), l_pad=2)
    want = mds_project(dm, [1, 0, 1, 0, 1])
    # numpy 1.x's bincount refuses uint64, which does not cast safely to intp.
    assert mds_project(dm, np.array([1, 0, 1, 0, 1], dtype=np.uint64)) == want


def test_collinear_points_have_an_all_zero_second_axis():
    x = np.array([0.0, 1.0, 3.0, 4.5])
    dm = DistanceMatrix(tuple("abcd"), np.abs(x[:, None] - x), l_pad=5)
    proj = mds_project(dm)
    coords = np.array(proj.coords)
    assert np.allclose(coords[:, 0], 2.125 - x, rtol=0, atol=1e-12)
    assert np.all(coords[:, 1] == 0.0)
    assert proj.stress <= 1e-15
    assert (proj.eigenvalue_share, proj.diagnostics) == (1.0, ())
