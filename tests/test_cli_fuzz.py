"""Property test of the input boundary: any file given to a command ends in exit 0, 1 or 2."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archspread.cli import main

from conftest import one_solution_bundle

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)


def _either(valid):
    """A value of the expected shape or, in about one draw in five, any JSON value instead."""
    return st.sampled_from([valid] * 4 + [json_values]).flatmap(lambda s: s)


def _record(required, optional):
    return st.fixed_dictionaries(
        {k: _either(v) for k, v in required.items()},
        optional={k: _either(v) for k, v in optional.items()},
    )


node_ids = st.sampled_from(["n0", "n1", "n2", "n3"])
steps = _record(
    {"name": st.sampled_from(["clone", "move", " "])},
    {"args": st.lists(st.sampled_from(["X", "Y", ""]), max_size=3), "stray": json_values},
)
solutions = _record(
    {
        "id": st.sampled_from(["a", "b", "c"]),
        "objectives": st.lists(st.floats() | st.integers(), max_size=3),
    },
    {"sequence": st.lists(steps, max_size=3), "node": node_ids, "stray": json_values},
)
solution_sets = _record(
    {
        "label": st.sampled_from(["s", "t"]),
        "objective_names": st.lists(st.sampled_from(["f0", "f1"]), max_size=2),
        "solutions": st.lists(solutions, max_size=4),
    },
    {"stray": json_values},
)
edges = _record({"from": node_ids, "to": node_ids, "step": steps}, {"stray": json_values})
trees = _record(
    {
        "root": node_ids,
        "nodes": st.lists(node_ids, max_size=4),
        "edges": st.lists(edges, max_size=5),
    },
    {"stray": json_values},
)
bundles = _record(
    {"name": st.text(max_size=6), "sets": st.lists(solution_sets, max_size=3)},
    {"tree": trees, "provenance": st.text(max_size=6), "stray": json_values},
)
valid_steps = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["clone", "move"]),
        "args": st.lists(st.sampled_from("XY"), max_size=3),
    }
)


@st.composite
def valid_bundles(draw):
    """Bundles that pass validation, so the report commands reach distance, MS/MAS and MDS."""
    sets = []
    for label in draw(st.lists(st.sampled_from("stu"), min_size=1, max_size=3, unique=True)):
        names = draw(st.lists(st.sampled_from(["f0", "f1"]), max_size=2, unique=True))
        objectives = st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=len(names),
            max_size=len(names),
        )
        sequences = st.lists(valid_steps, max_size=3)
        solutions = [
            {"id": i, "objectives": draw(objectives), "sequence": draw(sequences)}
            for i in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
        ]
        sets.append({"label": label, "objective_names": names, "solutions": solutions})
    return {"name": draw(st.text(max_size=6)), "sets": sets}


documents = st.one_of(
    bundles.map(lambda doc: json.dumps(doc).encode()),
    valid_bundles().map(lambda doc: json.dumps(doc).encode()),
    json_values.map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=64),
)

@pytest.fixture(scope="module")
def bundle_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "bundle.json"


@pytest.mark.parametrize(
    "command",
    [["validate"], ["indicators", "--format", "csv"], ["compare"]],
    ids=["validate", "indicators-csv", "compare"],
)
@settings(max_examples=300, deadline=None)
@example(b"[" * 100_000 + b"]" * 100_000)
@example(one_solution_bundle("1" * 5000))
@given(documents)
def test_command_ends_in_an_exit_code_on_any_file(bundle_file, command, content):
    bundle_file.write_bytes(content)
    try:
        code = main([*command, str(bundle_file)])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
