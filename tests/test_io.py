import gc
import itertools
import json
import math
import random

import pytest

import archspread.io as bundle_io
from archspread.io import AnalysisBundle, BundleError, parse_bundle, write_bundle
from archspread.model import ArchitectureSolution, SearchTree, SolutionSet, TransformationStep
from archspread.synth import generate_sets, generate_tree

from conftest import random_set

MINIMAL = {
    "name": "tiny",
    "sets": [
        {
            "label": "only",
            "objective_names": ["f0"],
            "solutions": [
                {
                    "id": "a",
                    "objectives": [1.5],
                    "sequence": [{"name": "clone", "args": ["X"]}],
                }
            ],
        }
    ],
}

TREE_DOC = {
    "name": "treed",
    "tree": {
        "root": "n0",
        "nodes": ["n0", "n1", "n2", "n3", "n4"],
        "edges": [
            {"from": "n0", "to": "n1", "step": {"name": "r1", "args": ["a"]}},
            {"from": "n0", "to": "n2", "step": {"name": "r2", "args": ["b"]}},
            {"from": "n1", "to": "n3", "step": {"name": "r3", "args": []}},
            {"from": "n3", "to": "n4", "step": {"name": "r4", "args": ["c", "d"]}},
        ],
    },
    "sets": [
        {
            "label": "s",
            "objective_names": ["f0"],
            "solutions": [
                {"id": "root", "objectives": [0.0], "node": "n0"},
                {"id": "deep", "objectives": [1.0], "node": "n4"},
                {"id": "side", "objectives": [2.0], "node": "n2"},
            ],
        }
    ],
}


def test_minimal_document():
    bundle = parse_bundle(json.dumps(MINIMAL))
    assert bundle.name == "tiny"
    assert len(bundle.sets) == 1
    sol = bundle.sets[0].solutions[0]
    assert sol.sequence[0].name == "clone"
    assert bundle.warnings == ()


def test_tree_references_match_hand_extracted_paths():
    bundle = parse_bundle(json.dumps(TREE_DOC))
    by_id = {s.id: s for s in bundle.sets[0].solutions}
    assert by_id["root"].sequence == ()
    assert [s.name for s in by_id["deep"].sequence] == ["r1", "r3", "r4"]
    assert [s.name for s in by_id["side"].sequence] == ["r2"]


def test_missing_node_reference_names_node_and_path():
    doc = json.loads(json.dumps(TREE_DOC))
    doc["sets"][0]["solutions"][0]["node"] = "x9"
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(json.dumps(doc))
    assert "x9" in str(excinfo.value)
    assert "$.sets[0].solutions[0]" in str(excinfo.value)


def test_unreachable_node_reference_names_json_path():
    doc = json.loads(json.dumps(TREE_DOC))
    doc["tree"]["nodes"].append("island")
    doc["sets"][0]["solutions"][1]["node"] = "island"
    with pytest.raises(
        BundleError,
        match=r"^\$\.sets\[0\]\.solutions\[1\]\.node: node 'island' is unreachable from root 'n0'$",
    ):
        parse_bundle(json.dumps(doc))


def test_tree_is_walked_once_and_only_for_node_references(monkeypatch):
    # Each BFS over the tree starts from its adjacency map, so count those.
    walks = []
    children = SearchTree.children

    def counting_children(tree):
        walks.append(tree)
        return children(tree)

    monkeypatch.setattr(SearchTree, "children", counting_children)
    parse_bundle(json.dumps(TREE_DOC))
    assert len(walks) == 1
    # A second set that warns is parsed solution by solution, by the same walk.
    doc = json.loads(json.dumps(TREE_DOC))
    doc["sets"].append(json.loads(json.dumps(doc["sets"][0])))
    doc["sets"][1]["label"] = "t"
    doc["sets"][1]["solutions"][0]["note"] = "stray"
    assert parse_bundle(json.dumps(doc)).warnings
    assert len(walks) == 2
    explicit = json.loads(json.dumps(MINIMAL))
    explicit["tree"] = TREE_DOC["tree"]
    parse_bundle(json.dumps(explicit))
    assert len(walks) == 2


def test_both_sequence_and_node_is_error():
    doc = json.loads(json.dumps(TREE_DOC))
    doc["sets"][0]["solutions"][0]["sequence"] = []
    with pytest.raises(BundleError, match="both"):
        parse_bundle(json.dumps(doc))


def test_neither_sequence_nor_node_is_error():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["sets"][0]["solutions"][0]["sequence"]
    with pytest.raises(BundleError):
        parse_bundle(json.dumps(doc))


def test_node_reference_without_tree_is_error():
    doc = json.loads(json.dumps(MINIMAL))
    doc["sets"][0]["solutions"][0] = {"id": "a", "objectives": [1.0], "node": "n0"}
    with pytest.raises(BundleError, match="no tree"):
        parse_bundle(json.dumps(doc))


def test_unknown_fields_are_warned_not_fatal():
    doc = json.loads(json.dumps(MINIMAL))
    doc["extra_top"] = 1
    doc["sets"][0]["extra_set"] = 2
    bundle = parse_bundle(json.dumps(doc))
    assert any("extra_top" in w for w in bundle.warnings)
    assert any("extra_set" in w for w in bundle.warnings)


def test_unknown_fields_are_warned_at_every_level_in_document_order():
    doc = json.loads(json.dumps(TREE_DOC))
    doc["x"] = 0
    doc["tree"]["x"] = 0
    doc["tree"]["edges"][0]["w"] = 3
    doc["tree"]["edges"][0]["step"]["x"] = 0
    doc["sets"][0]["x"] = 0
    doc["sets"][0]["solutions"][0]["x"] = 0
    doc["sets"][0]["solutions"].append(
        {"id": "seq", "objectives": [3.0], "sequence": [{"name": "r1", "x": 0}]}
    )
    assert parse_bundle(json.dumps(doc)).warnings == tuple(
        f"ignored unknown field {path}"
        for path in (
            "$.x",
            "$.tree.x",
            "$.tree.edges[0].w",
            "$.tree.edges[0].step.x",
            "$.sets[0].x",
            "$.sets[0].solutions[0].x",
            "$.sets[0].solutions[3].sequence[0].x",
        )
    )


STEP = {"name": "m", "args": ["a", "b"]}


def repeated_step_doc(later: dict) -> dict:
    """``STEP`` on tree edge 0 and in solution 0, then ``later`` on edge 1 and in solution 1."""
    return {
        "name": "repeats",
        "tree": {
            "root": "n0",
            "nodes": ["n0", "n1", "n2"],
            "edges": [
                {"from": "n0", "to": "n1", "step": dict(STEP)},
                {"from": "n1", "to": "n2", "step": later},
            ],
        },
        "sets": [
            {
                "label": "s",
                "objective_names": ["f0"],
                "solutions": [
                    {"id": "a", "objectives": [0.0], "sequence": [dict(STEP)]},
                    {"id": "b", "objectives": [1.0], "sequence": [later]},
                    {"id": "c", "objectives": [2.0], "node": "n2"},
                ],
            }
        ],
    }


def test_equal_steps_in_edges_and_sequences_are_one_object():
    for later in ({"args": ["a", "b"], "name": "m"}, {"name": "m", "args": ["a", "b"]}):
        bundle = parse_bundle(json.dumps(repeated_step_doc(later)))
        a, b, c = bundle.sets[0].solutions
        edge_steps = [step for _, _, step in bundle.tree.edges]
        shared = edge_steps[0]
        assert shared == TransformationStep("m", ("a", "b"))
        assert all(step is shared for step in (*edge_steps, *a.sequence, *b.sequence, *c.sequence))


# Decoding turns every step-shaped object into a step, wherever it stands; where
# the bundle expects another object, it must fail as that object would have.
@pytest.mark.parametrize("step", [{"name": "x", "args": []}, {"name": "x"}])
@pytest.mark.parametrize(
    "place, message",
    [
        ("bundle", "$.sets: missing required field"),
        ("tree", "$.tree.root: missing required field"),
        ("edge", "$.tree.edges[0].from: missing required field"),
        ("set", "$.sets[0].label: missing required field"),
        ("solution", "$.sets[0].solutions[0].id: missing required field"),
    ],
)
def test_step_shaped_object_where_another_object_belongs(step, place, message):
    doc = json.loads(json.dumps(TREE_DOC))
    if place == "bundle":
        doc = step
    elif place == "tree":
        doc["tree"] = step
    elif place == "edge":
        doc["tree"]["edges"][0] = step
    elif place == "set":
        doc["sets"][0] = step
    else:
        doc["sets"][0]["solutions"][0] = step
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(json.dumps(doc))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("where", ["edge", "sequence", "later-edge", "later-sequence"])
@pytest.mark.parametrize(
    "step, message",
    [
        ({"name": " ", "args": []}, ": transformation name must be non-empty"),
        ({"name": "m", "args": ["a", ""]}, ": transformation 'm' has an empty argument token"),
    ],
)
def test_first_occurrence_of_an_invalid_step_fails_at_its_path(where, step, message):
    doc = json.loads(json.dumps(TREE_DOC))
    if where == "edge":
        doc["tree"]["edges"][0]["step"] = step
        path = "$.tree.edges[0].step"
    elif where == "later-edge":
        doc["tree"]["edges"][3]["step"] = step
        path = "$.tree.edges[3].step"
    elif where == "sequence":
        doc["sets"][0]["solutions"][0] = {"id": "a", "objectives": [0.0], "sequence": [step]}
        path = "$.sets[0].solutions[0].sequence[0]"
    else:
        sequence = [{"name": "r1", "args": ["a"]}, {"name": "r2", "args": ["b"]}, step]
        doc["sets"][0]["solutions"][2] = {"id": "c", "objectives": [0.0], "sequence": sequence}
        path = "$.sets[0].solutions[2].sequence[2]"
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(json.dumps(doc))
    assert str(excinfo.value) == path + message


# Each later occurrence of STEP, altered, must fail or warn as it would have
# as a first occurrence: a step seen before does not skip a check.
@pytest.mark.parametrize("where", ["edge", "sequence"])
@pytest.mark.parametrize(
    "later, message",
    [
        ({"name": "m", "args": "ab"}, ".args: must be a list of strings"),
        ({"name": "m", "args": [["a"]]}, ".args: must be a list of strings"),
        ({"name": "m", "args": ["a", ""]}, ": transformation 'm' has an empty argument token"),
        ({"args": ["a", "b"]}, ".name: missing required field"),
        ({"name": 1, "args": ["a", "b"]}, ".name: expected str"),
    ],
)
def test_repeated_step_keeps_every_check(where, later, message):
    doc = repeated_step_doc(dict(STEP))
    if where == "edge":
        doc["tree"]["edges"][1]["step"] = later
        path = "$.tree.edges[1].step"
    else:
        doc["sets"][0]["solutions"][1]["sequence"][0] = later
        path = "$.sets[0].solutions[1].sequence[0]"
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(json.dumps(doc))
    assert str(excinfo.value) == path + message


def test_repeated_step_with_stray_key_warns_at_its_own_path():
    bundle = parse_bundle(json.dumps(repeated_step_doc({**STEP, "stray": 0})))
    assert bundle.warnings == (
        "ignored unknown field $.tree.edges[1].step.stray",
        "ignored unknown field $.sets[0].solutions[1].sequence[0].stray",
    )
    assert bundle.sets[0].solutions[1].sequence[0] is bundle.tree.edges[0][2]


EDGE = {"from": "n0", "to": "n1", "step": {"name": "x"}}


# An edge-shaped object is a tree edge only in $.tree.edges; where the bundle
# expects another object, it must fail as that object would have.
@pytest.mark.parametrize(
    "place, message",
    [
        ("bundle", "$.name: missing required field"),
        ("tree", "$.tree.root: missing required field"),
        ("edge step", "$.tree.edges[0].step.name: missing required field"),
        ("set", "$.sets[0].label: missing required field"),
        ("solution", "$.sets[0].solutions[0].id: missing required field"),
        ("sequence", "$.sets[0].solutions[0].sequence[0].name: missing required field"),
    ],
)
def test_edge_shaped_object_where_another_object_belongs(place, message):
    doc = json.loads(json.dumps(TREE_DOC))
    if place == "bundle":
        doc = EDGE
    elif place == "tree":
        doc["tree"] = EDGE
    elif place == "edge step":
        doc["tree"]["edges"][0]["step"] = EDGE
    elif place == "set":
        doc["sets"][0] = EDGE
    elif place == "solution":
        doc["sets"][0]["solutions"][0] = EDGE
    else:
        doc["sets"][0]["solutions"][0] = {"id": "a", "objectives": [0.0], "sequence": [EDGE]}
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(json.dumps(doc))
    assert str(excinfo.value) == message


def test_edges_with_stray_fields_warn_and_keep_their_edge():
    doc = json.loads(json.dumps(TREE_DOC))
    doc["tree"]["edges"][1]["w"] = 3
    doc["tree"]["edges"][2]["step"]["x"] = 0
    bundle = parse_bundle(json.dumps(doc))
    assert bundle.warnings == (
        "ignored unknown field $.tree.edges[1].w",
        "ignored unknown field $.tree.edges[2].step.x",
    )
    assert bundle.tree == parse_bundle(json.dumps(TREE_DOC)).tree
    assert bundle.sets == parse_bundle(json.dumps(TREE_DOC)).sets


@pytest.mark.parametrize("end", ["from", "to"])
@pytest.mark.parametrize(
    "value, message", [("x9", "unknown node 'x9'"), (3, "expected str"), (["n0"], "expected str")]
)
def test_edge_end_that_is_not_a_known_node_fails_at_its_path(end, value, message):
    doc = json.loads(json.dumps(TREE_DOC))
    doc["tree"]["edges"][2][end] = value
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(json.dumps(doc))
    assert str(excinfo.value) == f"$.tree.edges[2].{end}: {message}"


# The search visits children in id order ("a" before "b") and, among parallel
# edges, keeps the first-listed one.
PARALLEL_EDGES = [
    ("n0", "b", "toB1"),
    ("b", "t", "bt"),
    ("n0", "a", "toA1"),
    ("n0", "b", "toB2"),
    ("a", "t", "at1"),
    ("n0", "a", "toA2"),
    ("a", "t", "at2"),
]
PARALLEL_DOC = {
    "name": "parallel",
    "tree": {
        "root": "n0",
        "nodes": ["n0", "b", "a", "t"],
        "edges": [{"from": p, "to": c, "step": {"name": n}} for p, c, n in PARALLEL_EDGES],
    },
    "sets": [
        {
            "label": "s",
            "objective_names": ["f0"],
            "solutions": [
                {"id": node, "objectives": [0.0], "node": node} for node in ("t", "b", "a")
            ],
        }
    ],
}


def test_parallel_edges_listed_out_of_id_order_resolve_as_documented():
    bundle = parse_bundle(json.dumps(PARALLEL_DOC))
    assert [step.name for _, _, step in bundle.tree.edges] == [n for _, _, n in PARALLEL_EDGES]
    paths = {sol.id: [step.name for step in sol.sequence] for sol in bundle.sets[0].solutions}
    assert paths == {"t": ["toA1", "at1"], "b": ["toB1"], "a": ["toA1"]}


def outcome(text: str):
    """What ``parse_bundle`` makes of ``text``: the bundle and its warnings, or the error."""
    try:
        bundle = parse_bundle(text)
    except BundleError as exc:
        return str(exc)
    return bundle, bundle.warnings


def with_key_order(doc: dict, step_keys: tuple, edge_keys: tuple) -> dict:
    """A copy of ``doc`` whose steps and edges list their keys in the given
    orders; keys left out of an order follow in the order they had."""

    def order(obj: dict, keys: tuple) -> dict:
        return {**{k: obj[k] for k in keys if k in obj}, **obj}

    doc = json.loads(json.dumps(doc))
    doc["tree"]["edges"] = [
        order({**edge, "step": order(edge["step"], step_keys)}, edge_keys)
        for edge in doc["tree"]["edges"]
    ]
    for s in doc["sets"]:
        for sol in s["solutions"]:
            if "sequence" in sol:
                sol["sequence"] = [order(step, step_keys) for step in sol["sequence"]]
    return doc


def steps_without_args() -> dict:
    doc = repeated_step_doc({"name": "m"})
    doc["tree"]["edges"][0]["step"] = {"name": "m"}
    doc["sets"][0]["solutions"][0]["sequence"] = [{"name": "m"}, {"name": "m", "args": []}]
    return doc


# Each document exercises the decoder on one kind of step or edge; the
# canonical key order is "name", "args" and "from", "to", "step".
KEY_ORDER_DOCS = {
    "repeated": lambda: repeated_step_doc(dict(STEP)),
    "parallel-edges": lambda: PARALLEL_DOC,
    "without-args": steps_without_args,
    "stray-key": lambda: repeated_step_doc({**STEP, "stray": 0}),
    "stray-args": lambda: repeated_step_doc({"name": "m", "stray": ["a", "b"]}),
    "stray-name": lambda: repeated_step_doc({"stray": "m", "args": ["a", "b"]}),
    "non-string-arg": lambda: repeated_step_doc({"name": "m", "args": ["a", 1]}),
    "list-arg": lambda: repeated_step_doc({"name": "m", "args": [["a"], "b"]}),
    "blank-name": lambda: repeated_step_doc({"name": " ", "args": ["a"]}),
    "unknown-end": lambda: {**TREE_DOC, "tree": {**TREE_DOC["tree"], "nodes": ["n0", "n1"]}},
}


# The decoder tells an interned step, and the tree parse a well-formed edge,
# by its keys, not by their order, and every other object takes the general
# path: every key order must give the same bundle, the same warnings, the
# same shared steps and the same errors as the order json.dumps writes.
@pytest.mark.parametrize("edge_keys", list(itertools.permutations(("from", "to", "step"))))
@pytest.mark.parametrize("step_keys", [("name", "args"), ("args", "name")])
@pytest.mark.parametrize("doc", list(KEY_ORDER_DOCS))
def test_every_key_order_decodes_as_the_canonical_one(doc, step_keys, edge_keys):
    canonical = json.dumps(KEY_ORDER_DOCS[doc]())
    text = json.dumps(with_key_order(json.loads(canonical), step_keys, edge_keys))
    expected, got = outcome(canonical), outcome(text)
    assert got == expected
    if not isinstance(got, str):
        bundle = got[0]
        steps = [step for _, _, step in bundle.tree.edges]
        steps += [step for s in bundle.sets for sol in s.solutions for step in sol.sequence]
        assert len({id(step) for step in steps}) == len(set(steps))


def test_a_stray_key_is_not_read_as_args_or_name():
    # Two keys holding the name and the args of an interned step, under
    # another key, are a stray field and not that step.
    for later, step in (
        ({"name": "m", "stray": ["a", "b"]}, TransformationStep("m")),
        ({"stray": "m", "args": ["a", "b"]}, None),
    ):
        got = outcome(json.dumps(repeated_step_doc(later)))
        if step is None:
            assert got == "$.tree.edges[1].step.name: missing required field"
            continue
        bundle, warnings = got
        assert warnings == (
            "ignored unknown field $.tree.edges[1].step.stray",
            "ignored unknown field $.sets[0].solutions[1].sequence[0].stray",
        )
        assert bundle.tree.edges[1][2] == step


# A repeated key keeps its last value, as in a dict, in a step and in an edge:
# each case replaces a fragment of a bundle's text once by the canonical text
# and once by text with a repeated key that must decode the same.
STEP_TEXT = json.dumps(STEP)
EDGE_HEAD = '{"from": "n0", "to": "n1", '


@pytest.mark.parametrize(
    "fragment, canonical, repeated",
    [
        (STEP_TEXT, STEP_TEXT, '{"name": "z", "name": "m", "args": ["a", "b"]}'),
        (STEP_TEXT, STEP_TEXT, '{"name": "m", "args": [], "args": ["a", "b"]}'),
        (STEP_TEXT, STEP_TEXT, '{"args": 3, "name": "m", "args": ["a", "b"]}'),
        (STEP_TEXT, '{"name": "m", "args": [1]}', '{"name": "m", "args": ["a"], "args": [1]}'),
        (STEP_TEXT, '{"name": "m", "x": 0}', '{"x": 1, "name": "m", "x": 0}'),
        (EDGE_HEAD, EDGE_HEAD, '{"from": "n2", "from": "n0", "to": "n1", '),
        (EDGE_HEAD, EDGE_HEAD, '{"from": "n0", "to": "n1", "to": "n1", '),
        (EDGE_HEAD, '{"from": "n0", "to": "zz", ', '{"from": "n0", "to": "n1", "to": "zz", '),
        (EDGE_HEAD, EDGE_HEAD, '{"step": {"name": "x"}, "from": "n0", "to": "n1", '),
    ],
)
def test_a_repeated_key_keeps_its_last_value(fragment, canonical, repeated):
    text = json.dumps(repeated_step_doc(dict(STEP)))
    assert fragment in text
    assert outcome(text.replace(fragment, repeated)) == outcome(text.replace(fragment, canonical))


def node_reference_doc(seed: int) -> dict:
    tree = generate_tree(seed, 9, 2, 6, 9)
    doc = json.loads(write_bundle(AnalysisBundle("refs", (), tree)))
    rng = random.Random(seed)
    doc["sets"] = [
        {
            "label": f"s{k}",
            "objective_names": ["f0", "f1"],
            "solutions": [
                {"id": f"s{k}_{i}", "objectives": [rng.random(), i], "node": node}
                for i, node in enumerate(rng.sample(tree.nodes, 30))
            ],
        }
        for k in range(3)
    ]
    return doc


def test_valid_input_takes_no_per_element_path(monkeypatch):
    tree = generate_tree(4, 6, 2, 5, 8)
    explicit = write_bundle(AnalysisBundle("explicit", tuple(generate_sets(tree, 4, 3, 20)), tree))
    refs = json.dumps(node_reference_doc(4))
    expected = [parse_bundle(explicit), parse_bundle(refs)]

    def per_element(*args):
        raise AssertionError("a per-element path ran on valid input")

    for name in ("_is_finite_number", "_parse_step", "_parse_edge", "_parse_solution"):
        monkeypatch.setattr(bundle_io, name, per_element)
    assert [parse_bundle(explicit), parse_bundle(refs)] == expected
    assert all(bundle.warnings == () for bundle in expected)


# Whole-list checks pass valid input; a bad element after good ones still
# fails at its own index.
@pytest.mark.parametrize(
    "literal", ["true", "1e999", "-1e999", "NaN", "Infinity", "1" + "0" * 400, '"1"', "null"]
)
def test_first_bad_objective_fails_at_its_index(literal):
    doc = node_reference_doc(5)
    doc["sets"][1]["solutions"][7]["objectives"][1] = "BAD"
    text = json.dumps(doc).replace('"BAD"', literal)
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(text)
    assert str(excinfo.value) == "$.sets[1].solutions[7].objectives[1]: must be a finite number"


DELETE = object()


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"sequence": None}, ".sequence: expected list"),
        ({"sequence": DELETE, "node": None}, ".node: expected str"),
        ({"sequence": DELETE, "node": "zz"}, ".node: unknown node 'zz'"),
        ({"node": "n3"}, ": solution 's1_7' has both 'sequence' and 'node'"),
        ({"sequence": DELETE}, ": solution 's1_7' needs either 'sequence' or 'node'"),
        ({"id": 7}, ".id: expected str"),
        ({"id": "a\ud800"}, ".id: contains a lone surrogate"),
        ({"objectives": {}}, ".objectives: expected list"),
    ],
)
def test_first_bad_solution_field_fails_at_its_index(changes, message):
    tree = generate_tree(8, 5, 2, 4, 6)
    doc = json.loads(write_bundle(AnalysisBundle("x", tuple(generate_sets(tree, 8, 2, 10)), tree)))
    solution = doc["sets"][1]["solutions"][7]
    for field, value in changes.items():
        if value is DELETE:
            del solution[field]
        else:
            solution[field] = value
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(json.dumps(doc))
    assert str(excinfo.value) == "$.sets[1].solutions[7]" + message


# Edges that become triples as they stand and edges parsed field by field go
# through one loop: the first bad edge in document order fails, whatever its kind.
UNKNOWN_TO = ("to", "zz")
UNKNOWN_FROM = ("from", "zz")
NO_STEP = ("step", DELETE)


@pytest.mark.parametrize(
    "at_300, at_400, message",
    [
        (UNKNOWN_TO, UNKNOWN_FROM, "$.tree.edges[300].to: unknown node 'zz'"),
        (UNKNOWN_TO, NO_STEP, "$.tree.edges[300].to: unknown node 'zz'"),
        (NO_STEP, UNKNOWN_TO, "$.tree.edges[300].step: missing required field"),
    ],
    ids=["unknown-then-unknown", "unknown-then-no-step", "no-step-then-unknown"],
)
def test_first_edge_with_an_unknown_end_fails_at_its_index(at_300, at_400, message):
    doc = node_reference_doc(6)
    for index, (field, value) in ((300, at_300), (400, at_400)):
        edge = doc["tree"]["edges"][index]
        if value is DELETE:
            del edge[field]
        else:
            edge[field] = value
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(json.dumps(doc))
    assert str(excinfo.value) == message


def unknown_node_doc():
    doc = json.loads(json.dumps(TREE_DOC))
    doc["sets"][0]["solutions"][0]["node"] = "x9"
    return doc


# A bundle text, and the error parse_bundle raises on it (None: it parses).
PARSE_OUTCOMES = {
    "valid": (json.dumps(TREE_DOC), None),
    "schema": (json.dumps({"name": "x"}), "$.sets: missing required field"),
    "malformed": ('{"name": ', "$: invalid JSON: Expecting value"),
    "too-deep": ("[" * 100_000 + "]" * 100_000, "$: invalid JSON: maximum recursion depth"),
    "unknown-node": (json.dumps(unknown_node_doc()), "$.sets[0].solutions[0].node: unknown node"),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("outcome", list(PARSE_OUTCOMES))
def test_parse_leaves_the_collector_as_the_caller_had_it(outcome, enabled):
    text, error = PARSE_OUTCOMES[outcome]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            parse_bundle(text)
        else:
            with pytest.raises(BundleError) as excinfo:
                parse_bundle(text)
            assert str(excinfo.value).startswith(error)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_parse_leaves_no_cyclic_garbage():
    # parse_bundle pauses the collector, which frees nothing only while no
    # object the parse builds, keeps or drops is part of a reference cycle.
    explicit = AnalysisBundle("explicit", (random_set(random.Random(3), n=30),))
    texts = [
        write_bundle(explicit),
        json.dumps(PARALLEL_DOC),
        json.dumps(repeated_step_doc({**STEP, "stray": 0})),
    ]
    gc.collect()
    bundles = [parse_bundle(text) for text in texts]
    assert bundles[2].warnings
    del bundles
    assert gc.collect() == 0


@pytest.mark.parametrize(
    "nodes, message",
    [
        (["n0", "n1", "n1"], "$.tree.nodes[2]: duplicate node id 'n1'"),
        (["n0", "n1", "n2", "n0", "n2"], "$.tree.nodes[3]: duplicate node id 'n0'"),
    ],
)
def test_repeated_node_id_fails_at_its_first_repeat(nodes, message):
    doc = json.loads(json.dumps(TREE_DOC))
    doc["tree"]["nodes"] = nodes
    doc["tree"]["edges"] = doc["tree"]["edges"][:1]
    doc["sets"][0]["solutions"] = doc["sets"][0]["solutions"][:1]
    with pytest.raises(BundleError) as excinfo:
        parse_bundle(json.dumps(doc))
    assert str(excinfo.value) == message


def test_duplicate_set_labels_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["sets"].append(json.loads(json.dumps(doc["sets"][0])))
    with pytest.raises(BundleError, match="duplicate set label"):
        parse_bundle(json.dumps(doc))


def test_nonfinite_objective_rejected_with_path():
    doc = json.loads(json.dumps(MINIMAL))
    doc["sets"][0]["solutions"][0]["objectives"] = [float("inf")]
    # json allows Infinity only via python extension; build text manually.
    text = json.dumps(doc).replace("Infinity", "1e999")
    with pytest.raises(BundleError, match=r"objectives\[0\]"):
        parse_bundle(text)


def test_bundle_round_trip():
    doc = json.loads(json.dumps(TREE_DOC))
    doc["tree"]["nodes"] = ["n0", "n2", "n10", "n1", "n4", "n3"]
    bundle = parse_bundle(json.dumps(doc))
    text = write_bundle(bundle)
    assert json.loads(text)["tree"]["nodes"] == doc["tree"]["nodes"]
    again = parse_bundle(text)
    assert again.name == bundle.name
    assert again.tree == bundle.tree
    assert again.sets == bundle.sets


@pytest.mark.parametrize("objective", [math.nan, math.inf])
def test_bundle_writer_refuses_numbers_that_json_cannot_hold(objective):
    solution_set = SolutionSet("s", ("f0",), (ArchitectureSolution("a", (objective,)),))
    with pytest.raises(ValueError, match="JSON compliant"):
        write_bundle(AnalysisBundle("x", (solution_set,)))
