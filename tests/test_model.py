import numpy as np
import pytest

from archspread.model import (
    ArchitectureSolution,
    DistanceMatrix,
    SearchTree,
    SolutionSet,
    TransformationStep,
    validate_solution_set,
)

from conftest import make_set, make_solution, make_step


def test_step_rejects_empty_name():
    with pytest.raises(ValueError):
        TransformationStep("   ")


def test_step_rejects_empty_arg_token():
    with pytest.raises(ValueError):
        TransformationStep("clone", ("", "x"))


def test_minimal_valid_set_has_no_violations():
    s = make_set(solutions=(make_solution("a", objectives=(0.0,)),))
    assert validate_solution_set(s) == []


def test_duplicate_id_violation():
    s = make_set(
        solutions=(
            make_solution("a3", objectives=(0.0,)),
            make_solution("a3", objectives=(1.0,)),
        )
    )
    violations = validate_solution_set(s)
    assert len(violations) == 1
    assert "a3" in violations[0] and "duplicate" in violations[0]


def test_objective_arity_violation():
    s = SolutionSet(
        "s",
        ("f0", "f1", "f2", "f3"),
        (
            make_solution("ok", objectives=(1.0, 2.0, 3.0, 4.0)),
            make_solution("bad", objectives=(1.0, 2.0, 3.0)),
        ),
    )
    violations = validate_solution_set(s)
    assert len(violations) == 1
    assert "bad" in violations[0]


def test_nonfinite_objective_violation():
    s = make_set(solutions=(make_solution("a", objectives=(float("nan"),)),))
    assert any("a" in v and "finite" in v for v in validate_solution_set(s))


def test_objective_range_past_the_largest_float_violation():
    s = make_set(
        label="wide",
        objective_names=("cost", "time"),
        solutions=(
            make_solution("a", objectives=(-1.7e308, 0.0)),
            make_solution("b", objectives=(1.7e308, 1.0)),
        ),
    )
    assert validate_solution_set(s) == [
        "set 'wide': objective 'cost' has a range past the largest float"
    ]


def test_ms_past_the_largest_float_violation():
    # Each range is a float; their root-sum-square is not.
    s = make_set(
        label="wide",
        objective_names=("cost", "time"),
        solutions=(
            make_solution("a", objectives=(0.0, 0.0)),
            make_solution("b", objectives=(1.5e308, 1.5e308)),
        ),
    )
    assert validate_solution_set(s) == ["set 'wide': MS is past the largest float"]


def test_empty_set_violation():
    assert validate_solution_set(make_set(solutions=())) != []


def test_duplicate_solutions_with_distinct_ids_allowed():
    step = make_step()
    s = make_set(
        solutions=(
            make_solution("a", steps=(step,)),
            make_solution("b", steps=(step,)),
        )
    )
    assert validate_solution_set(s) == []


def test_search_tree_requires_known_root():
    with pytest.raises(ValueError):
        SearchTree(nodes=("n1",), root_id="n0", edges=())


def test_search_tree_rejects_edges_to_unknown_nodes():
    with pytest.raises(ValueError):
        SearchTree(
            nodes=("n0",),
            root_id="n0",
            edges=(("n0", "nX", make_step()),),
        )


def test_search_tree_nodes_keep_given_order():
    tree = SearchTree(nodes=["n2", "n0", "n10", "n0", "n1"], root_id="n0", edges=())
    assert tree.nodes == ("n2", "n0", "n10", "n1")


def test_distance_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DistanceMatrix(ids=("a",), values=((1.0,),), l_pad=1)
    with pytest.raises(ValueError):
        DistanceMatrix(
            ids=("a", "b"), values=((0.0, 1.0), (0.5, 0.0)), l_pad=1
        )
    with pytest.raises(ValueError):
        DistanceMatrix(
            ids=("a", "b"), values=((0.0, 7.0), (7.0, 0.0)), l_pad=1
        )


NAN = float("nan")


@pytest.mark.parametrize(
    "ids, values, message",
    [
        ("abc", ((0, 1, 1), (1, 2, 1), (1, 1, 0)), "nonzero diagonal at 'b'"),
        ("abc", ((0, 1, 0.5), (1, 0, 9), (0, 9, 0)), r"asymmetry at \('a', 'c'\)"),
        ("abc", ((0, 1, 1), (1, 0, 9), (1, 9, 0)), r"out of \[0, L\] at \('b', 'c'\)"),
        ("abc", ((0, 1, 1), (1, 0, -1), (1, -1, 0)), r"out of \[0, L\] at \('b', 'c'\)"),
        ("ab", ((0, NAN), (NAN, 0)), r"asymmetry at \('a', 'b'\)"),
        ("abc", ((0, 1), (1, 0)), "shape does not match ids"),
        ("ab", ((0, 1, 1), (1, 0)), "shape does not match ids"),
    ],
)
def test_distance_matrix_violation_names_first_offending_ids(ids, values, message):
    with pytest.raises(ValueError, match=message):
        DistanceMatrix(ids=tuple(ids), values=values, l_pad=2)


def test_distance_matrix_copies_writeable_input():
    source = np.array([[0.0, 1.0], [1.0, 0.0]])
    dm = DistanceMatrix(ids=("a", "b"), values=source, l_pad=1)
    source[0, 1] = source[1, 0] = 0.5
    assert dm.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert not dm.values.flags.writeable


def test_solution_types_are_immutable():
    sol = make_solution("a")
    with pytest.raises(AttributeError):
        sol.id = "b"
