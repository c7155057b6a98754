import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archspread.encoding import (
    UnknownNodeError,
    UnknownTokenError,
    UnreachableNodeError,
    build_encoding,
    extract_sequence,
)
from archspread.model import SearchTree, TransformationStep

from conftest import make_set, make_solution, make_step


def test_single_token_vocabulary():
    s = make_set(solutions=(make_solution("a", steps=(make_step("cloneNode", ("Rebook",)),)),))
    table = build_encoding([s])
    assert table.name_symbols == {"cloneNode": 0}
    assert table.arg_symbols == {"Rebook": 0}


def test_deduplication_of_repeated_steps():
    step = make_step("replace", ("Exporter", "AltExporter"))
    s = make_set(solutions=(make_solution("a", steps=(step, step)),))
    table = build_encoding([s])
    assert len(table.name_symbols) == 1
    assert len(table.arg_symbols) == 2


def test_names_and_args_use_separate_symbol_spaces():
    s = make_set(
        solutions=(
            make_solution("a", steps=(make_step("Exporter", ("Exporter",)),)),
        )
    )
    table = build_encoding([s])
    assert "Exporter" in table.name_symbols
    assert "Exporter" in table.arg_symbols
    # Same token, one symbol per space; ids are dense from 0 in each space.
    assert table.name_symbols["Exporter"] == 0
    assert table.arg_symbols["Exporter"] == 0


def test_symbols_are_dense_and_first_occurrence_ordered():
    s = make_set(
        solutions=(
            make_solution("a", steps=(make_step("x", ("p", "q")), make_step("y", ("p",)))),
            make_solution("b", steps=(make_step("z", ("r",)),)),
        )
    )
    table = build_encoding([s])
    assert table.name_symbols == {"x": 0, "y": 1, "z": 2}
    assert table.arg_symbols == {"p": 0, "q": 1, "r": 2}


def test_build_encoding_requires_sets():
    with pytest.raises(ValueError):
        build_encoding([])


def test_build_encoding_deterministic():
    s = make_set(
        solutions=tuple(
            make_solution(f"s{i}", steps=(make_step(f"op{i % 3}", (f"e{i % 4}",)),))
            for i in range(10)
        )
    )
    assert build_encoding([s]) == build_encoding([s])


def test_encode_step_direct_lookup():
    s = make_set(solutions=(make_solution("a", steps=(make_step("cloneNode", ("Rebook",)),)),))
    table = build_encoding([s])
    encoded = table.encode_step(make_step("cloneNode", ("Rebook",)))
    assert (encoded.name, list(encoded.args)) == (0, [0])
    empty = table.encode_step(TransformationStep("cloneNode"))
    assert (empty.name, list(empty.args)) == (0, [])


def test_encode_step_unknown_token():
    s = make_set(solutions=(make_solution("a", steps=(make_step("cloneNode", ("Rebook",)),)),))
    table = build_encoding([s])
    with pytest.raises(UnknownTokenError, match="unknownOp"):
        table.encode_step(TransformationStep("unknownOp"))


def _chain_tree():
    r1 = make_step("r1", ("a",))
    r2 = make_step("r2", ("b",))
    return SearchTree(
        nodes=("n0", "n1", "n2"),
        root_id="n0",
        edges=(("n0", "n1", r1), ("n1", "n2", r2)),
    ), r1, r2


def test_extract_sequence_root_is_empty():
    tree, _, _ = _chain_tree()
    assert extract_sequence(tree, "n0") == ()


def test_extract_sequence_unique_chain():
    tree, r1, r2 = _chain_tree()
    assert extract_sequence(tree, "n2") == (r1, r2)


def test_extract_sequence_unknown_node():
    tree, _, _ = _chain_tree()
    with pytest.raises(UnknownNodeError):
        extract_sequence(tree, "nX")


def test_extract_sequence_unreachable_node():
    tree = SearchTree(
        nodes=("n0", "island"),
        root_id="n0",
        edges=(),
    )
    with pytest.raises(UnreachableNodeError):
        extract_sequence(tree, "island")


def test_dag_tie_break_matches_exhaustive_enumeration():
    # Two 2-edge paths to n3: via "b" and via "c"; tie broken by child id.
    sb, sc = make_step("viaB"), make_step("viaC")
    tb, tc = make_step("toTgtB"), make_step("toTgtC")
    tree = SearchTree(
        nodes=("n0", "b", "c", "n3"),
        root_id="n0",
        edges=(
            ("n0", "c", sc),
            ("n0", "b", sb),
            ("c", "n3", tc),
            ("b", "n3", tb),
        ),
    )

    # Oracle: enumerate every simple path, keep shortest, pick lexicographically
    # smallest node-id path.
    def all_paths(node, target, seen):
        if node == target:
            return [[node]]
        out = []
        for parent, child, _ in tree.edges:
            if parent == node and child not in seen:
                for tail in all_paths(child, target, seen | {child}):
                    out.append([node] + tail)
        return out

    paths = all_paths("n0", "n3", {"n0"})
    shortest = min(len(p) for p in paths)
    expected_nodes = min(p for p in paths if len(p) == shortest)
    assert expected_nodes == ["n0", "b", "n3"]
    assert extract_sequence(tree, "n3") == (sb, tb)


def test_sequence_length_equals_bfs_depth():
    tree, _, _ = _chain_tree()
    for node, depth in (("n0", 0), ("n1", 1), ("n2", 2)):
        assert len(extract_sequence(tree, node)) == depth


def test_trap_dag_resolves_without_enumerating_layer_paths():
    # Fully connected layers whose ids sort first hold width**depth
    # shortest-length paths that miss the target; a disjoint chain of the
    # same depth reaches it. A depth-first search in id order enumerates
    # every layer path before trying the chain.
    width, depth = 6, 12
    nodes = ["r"]
    edges = []
    layers = [[f"a{layer:02d}_{k}" for k in range(width)] for layer in range(depth)]
    for layer in layers:
        nodes += layer
    edges += [("r", n, make_step("enter", ())) for n in layers[0]]
    for upper, lower in zip(layers, layers[1:]):
        edges += [(a, b, make_step("mesh", ())) for a in upper for b in lower]
    chain = ["r"] + [f"z{i:02d}" for i in range(1, depth)] + ["zt"]
    nodes += chain
    steps = [make_step(f"chain{i}", (f"e{i}",)) for i in range(depth)]
    edges += [(a, b, step) for a, b, step in zip(chain, chain[1:], steps)]
    tree = SearchTree(nodes=nodes, root_id="r", edges=tuple(edges))
    # A search that visits each edge a bounded number of times is ~10 us per
    # edge; width**depth = 2.2e9 paths are not.
    start = time.perf_counter()
    assert extract_sequence(tree, "zt") == tuple(steps)
    assert time.perf_counter() - start < len(edges) * 1e-3


def _oracle_sequence(nodes, root, edges, target):
    """Enumerate simple paths, keep the shortest, take the lexicographically
    smallest node-id path, then the first-listed edge on each hop."""
    if target not in nodes:
        return UnknownNodeError
    successors = {}
    for parent, child, _ in edges:
        successors.setdefault(parent, set()).add(child)
    found = []

    def walk(path):
        if path[-1] == target:
            found.append(path)
            return
        for child in successors.get(path[-1], ()):
            if child not in path:
                walk(path + [child])

    walk([root])
    if not found:
        return UnreachableNodeError
    shortest = min(len(p) for p in found)
    best = min(p for p in found if len(p) == shortest)
    return tuple(
        next(step for parent, child, step in edges if (parent, child) == hop)
        for hop in zip(best, best[1:])
    )


@st.composite
def small_digraphs(draw):
    # Ids whose string order differs from their numeric order.
    ids = draw(st.lists(st.sampled_from(["n0", "n1", "n10", "n2", "b", "a"]), min_size=1, max_size=6, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=14))
    # One distinct step per edge, so the chosen parallel edge is visible.
    edges = tuple((a, b, TransformationStep(f"e{k}")) for k, (a, b) in enumerate(pairs))
    root = draw(st.sampled_from(ids))
    target = draw(st.sampled_from(ids + ["unknown"]))
    return tuple(ids), root, edges, target


@settings(max_examples=300)
@given(small_digraphs())
def test_property_extract_sequence_matches_path_enumeration(graph):
    nodes, root, edges, target = graph
    tree = SearchTree(nodes=nodes, root_id=root, edges=edges)
    expected = _oracle_sequence(nodes, root, edges, target)
    if isinstance(expected, type):
        with pytest.raises(expected):
            extract_sequence(tree, target)
    else:
        assert extract_sequence(tree, target) == expected
