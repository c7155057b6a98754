"""The contract every frozen value type keeps: construction, equality, hashing,
immutability, repr, and copy and pickle round trips."""

import copy
import pickle

import numpy as np
import pytest

from archspread.distance import DistanceMatrix, DistanceWeights
from archspread.encoding import EncodingTable
from archspread.indicators import CorrelationStats, IndicatorResult
from archspread.io import AnalysisBundle
from archspread.model import (
    ArchitectureSolution,
    SearchTree,
    SolutionSet,
    TransformationStep,
)
from archspread.projection import Projection2D

STEP = TransformationStep("move", ("a", "b"))
SOLUTION = ArchitectureSolution("s1", (1.0, 2.0), (STEP,))
SOLUTION_SET = SolutionSet("set", ("f0", "f1"), (SOLUTION,))
TREE = SearchTree(("r", "c"), "r", (("r", "c", STEP),))

# (class, field names, positional values, defaults of the trailing fields)
CASES = [
    (TransformationStep, ("name", "args"), ("move", ("a", "b")), {"args": ()}),
    (
        ArchitectureSolution,
        ("id", "objectives", "sequence"),
        ("s1", (1.0, 2.0), (STEP,)),
        {"sequence": ()},
    ),
    (SolutionSet, ("label", "objective_names", "solutions"), ("set", ("f0",), (SOLUTION,)), {}),
    (SearchTree, ("nodes", "root_id", "edges"), (("r", "c"), "r", (("r", "c", STEP),)), {}),
    (DistanceMatrix, ("ids", "values", "l_pad"), (("a",), np.zeros((1, 1)), 1), {}),
    (
        IndicatorResult,
        ("set_label", "ms", "mas", "n", "max_d", "o", "l_pad", "diagnostics"),
        ("set", 1.5, 0.25, 3, 2.0, 1, 4, ("note",)),
        {"l_pad": 0, "diagnostics": ()},
    ),
    (CorrelationStats, ("n", "pearson", "spearman"), (3, 0.5, None), {}),
    (
        AnalysisBundle,
        ("name", "sets", "tree", "provenance", "warnings"),
        ("bundle", (SOLUTION_SET,), TREE, "synth", ("ignored unknown field $.x",)),
        {"tree": None, "provenance": "", "warnings": ()},
    ),
    (EncodingTable, ("name_symbols", "arg_symbols"), ({"move": 0}, {"a": 0, "b": 1}), {}),
    (DistanceWeights, ("w_pred", "w_args"), (0.25, 0.75), {"w_pred": 0.5, "w_args": 0.5}),
    (
        Projection2D,
        ("coords", "stress", "eigenvalue_share", "diagnostics"),
        (((0.0, 0.0), (0.0, 0.0)), 0.0, 1.0, ("note",)),
        {"diagnostics": ()},
    ),
]
UNHASHABLE = (DistanceMatrix, EncodingTable)  # an array field; dict fields


cases = pytest.mark.parametrize(
    "cls, fields, values, defaults", CASES, ids=[case[0].__name__ for case in CASES]
)


def _same(a, b):
    return type(a) is type(b) and a == b


def test_every_public_value_type_is_covered():
    import archspread

    public = map(archspread.__getattr__, archspread.__all__)
    value_types = {obj for obj in public if hasattr(obj, "__match_args__")}
    assert value_types == {case[0] for case in CASES}


@cases
def test_construction_positional_keyword_and_defaults(cls, fields, values, defaults):
    assert cls.__match_args__ == fields
    obj = cls(*values)
    assert _same(cls(**dict(zip(fields, values))), obj)
    for name, value in zip(fields, values):
        assert getattr(obj, name) is value or getattr(obj, name) == value
    required = values[: len(fields) - len(defaults)]
    bare = cls(*required)
    assert {name: getattr(bare, name) for name in defaults} == defaults


@cases
def test_equality_holds_only_within_one_class(cls, fields, values, defaults):
    obj = cls(*values)
    assert _same(cls(*values), obj)
    assert obj != tuple(values)
    assert not obj == tuple(values)
    sub = type("Sub", (cls,), {})
    assert obj != sub(*values) and sub(*values) != obj


def test_step_is_not_its_field_tuple():
    assert TransformationStep("a", ("x",)) != ("a", ("x",))
    assert TransformationStep("a", ("x",)) == TransformationStep("a", ["x"])
    assert TransformationStep("a", ("x",)) != TransformationStep("a", ("y",))
    assert hash(TransformationStep("a", ("x",))) == hash(("a", ("x",)))


@cases
def test_equal_values_hash_equal(cls, fields, values, defaults):
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(cls(*values))
    else:
        assert hash(cls(*values)) == hash(cls(*values))


def test_distance_matrices_compare_by_ids_bound_and_values():
    values = [[0.0, 1.0], [1.0, 0.0]]
    dm = DistanceMatrix(("a", "b"), values, 1)
    assert dm == DistanceMatrix(("a", "b"), np.array(values), 1)
    assert dm != DistanceMatrix(("a", "b"), [[0.0, 0.5], [0.5, 0.0]], 1)
    assert dm != DistanceMatrix(("a", "c"), values, 1)
    assert dm != DistanceMatrix(("a", "b"), values, 2)
    with pytest.raises(TypeError):
        hash(dm)


def test_bundle_warnings_take_no_part_in_equality_or_hash():
    a = AnalysisBundle("b", (SOLUTION_SET,), warnings=("one",))
    b = AnalysisBundle("b", (SOLUTION_SET,), warnings=("two", "three"))
    assert a == b and hash(a) == hash(b)
    assert a != AnalysisBundle("b", (SOLUTION_SET,), provenance="p")


@cases
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values, defaults):
    obj = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_repr_names_every_field():
    assert repr(STEP) == "TransformationStep(name='move', args=('a', 'b'))"
    stats = CorrelationStats(3, 0.5, None)
    assert repr(stats) == "CorrelationStats(n=3, pearson=0.5, spearman=None)"


@cases
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trips(cls, fields, values, defaults, round_trip):
    obj = cls(*values)
    assert _same(round_trip(obj), obj)


def test_distance_matrix_copies_stay_read_only():
    dm = DistanceMatrix(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], 1)
    for twin in (copy.deepcopy(dm), pickle.loads(pickle.dumps(dm))):
        assert not twin.values.flags.writeable
        assert np.array_equal(twin.values, dm.values)
