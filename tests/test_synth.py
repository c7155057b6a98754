import math
import statistics

import pytest

import archspread.synth as synth
from archspread.distance import DistanceWeights, distance_matrix
from archspread.encoding import build_encoding
from archspread.indicators import max_architectural_spread
from archspread.synth import generate_sets, generate_tree, oracle_mas

from conftest import random_set

W = DistanceWeights()


def test_depth_zero_tree_is_root_only():
    tree = generate_tree(seed=1, depth=0, branching=3, name_vocab=2, arg_vocab=2)
    assert tree.nodes == ("n0",)
    assert tree.edges == ()


def test_complete_binary_tree_counts():
    tree = generate_tree(seed=1, depth=2, branching=2, name_vocab=2, arg_vocab=2)
    assert len(tree.nodes) == 7
    assert len(tree.edges) == 6


def test_tree_determinism():
    a = generate_tree(seed=9, depth=3, branching=2, name_vocab=4, arg_vocab=5)
    b = generate_tree(seed=9, depth=3, branching=2, name_vocab=4, arg_vocab=5)
    assert a == b


def test_tree_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_tree(seed=1, depth=-1, branching=2, name_vocab=2, arg_vocab=2)
    with pytest.raises(ValueError):
        generate_tree(seed=1, depth=1, branching=0, name_vocab=2, arg_vocab=2)


def test_generate_sets_determinism():
    tree = generate_tree(seed=3, depth=4, branching=2, name_vocab=3, arg_vocab=4)
    a = generate_sets(tree, seed=5, k_sets=2, n_per_set=6)
    b = generate_sets(tree, seed=5, k_sets=2, n_per_set=6)
    assert a == b


def test_clustered_sets_fall_back_to_all_nodes_once_their_cluster_is_exhausted(monkeypatch):
    tree = generate_tree(seed=3, depth=3, branching=2, name_vocab=3, arg_vocab=4)
    adj = tree.children()
    clusters = [set(synth._subtree_nodes(root, adj)) for root, _ in adj[tree.root_id]]
    assert max(map(len, clusters)) == 7  # fewer than a set asks for
    asked = []

    class Recording(synth.PathResolver):
        def sequence(self, node):
            asked.append(node)
            return super().sequence(node)

    monkeypatch.setattr(synth, "PathResolver", Recording)
    a = generate_sets(tree, seed=5, k_sets=2, n_per_set=10, dispersion=0.0)
    assert [len(s.solutions) for s in a] == [10, 10]
    for nodes in (set(asked[:10]), set(asked[10:20])):
        assert len(nodes) == 10
        assert not any(nodes <= cluster for cluster in clusters)
    assert generate_sets(tree, seed=5, k_sets=2, n_per_set=10, dispersion=0.0) == a


def test_generate_sets_insufficient_nodes():
    tree = generate_tree(seed=1, depth=1, branching=2, name_vocab=2, arg_vocab=2)
    with pytest.raises(ValueError):
        generate_sets(tree, seed=1, k_sets=1, n_per_set=10)


@pytest.mark.parametrize("dispersion", [-0.1, 1.5, math.nan])
def test_generate_sets_rejects_dispersion_outside_unit_interval(dispersion):
    tree = generate_tree(seed=1, depth=2, branching=2, name_vocab=2, arg_vocab=2)
    with pytest.raises(ValueError, match=r"^dispersion must lie in \[0, 1\]$"):
        generate_sets(tree, seed=1, k_sets=1, n_per_set=2, dispersion=dispersion)


def test_singleton_set_has_zero_mas():
    tree = generate_tree(seed=2, depth=3, branching=2, name_vocab=3, arg_vocab=3)
    (s,) = generate_sets(tree, seed=2, k_sets=1, n_per_set=1)
    table = build_encoding([s])
    assert max_architectural_spread(distance_matrix(s, W)) == 0.0
    assert oracle_mas(s, table, W) == 0.0


def test_clustered_sampling_spreads_less_than_uniform():
    tree = generate_tree(seed=11, depth=5, branching=2, name_vocab=4, arg_vocab=6)
    (clustered,) = generate_sets(tree, seed=11, k_sets=1, n_per_set=10, dispersion=0.0)
    (uniform,) = generate_sets(tree, seed=11, k_sets=1, n_per_set=10, dispersion=1.0)
    mas_clustered = max_architectural_spread(distance_matrix(clustered, W))
    mas_uniform = max_architectural_spread(distance_matrix(uniform, W))
    assert mas_clustered < mas_uniform


def test_dispersion_ordering_over_many_seeds():
    tree = generate_tree(seed=0, depth=5, branching=2, name_vocab=4, arg_vocab=6)

    def mean_mas(dispersion):
        values = []
        for seed in range(30):
            (s,) = generate_sets(tree, seed=seed, k_sets=1, n_per_set=8, dispersion=dispersion)
            values.append(max_architectural_spread(distance_matrix(s, W)))
        return statistics.mean(values)

    assert mean_mas(0.0) < mean_mas(1.0)


def test_oracle_matches_hand_matrix_value():
    # Distances 2,1,1 between three two-step sequences give sqrt(9/12).
    from archspread.model import ArchitectureSolution, SolutionSet, TransformationStep

    t = TransformationStep
    s = SolutionSet(
        "hand",
        ("f0",),
        (
            ArchitectureSolution("a", (0.0,), (t("x", ("p",)), t("x", ("p",)))),
            ArchitectureSolution("b", (0.0,), (t("y", ("q",)), t("y", ("q",)))),
            ArchitectureSolution("c", (0.0,), (t("x", ("p",)), t("y", ("q",)))),
        ),
    )
    table = build_encoding([s])
    expected = math.sqrt(9 / 12)
    assert oracle_mas(s, table, W) == pytest.approx(expected, abs=1e-12)
    dm = distance_matrix(s, W)
    assert max_architectural_spread(dm) == pytest.approx(expected, abs=1e-12)


def test_oracle_equivalence_sweep(rng):
    for _ in range(200):
        s = random_set(rng, n=rng.randint(1, 8))
        table = build_encoding([s])
        dm = distance_matrix(s, W)
        assert max_architectural_spread(dm) == pytest.approx(
            oracle_mas(s, table, W), abs=1e-12
        )
