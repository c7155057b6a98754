"""Benchmark inputs and expected values, run as a child of ``run.py``.

    python3 perfbench/inputs.py gen    --workload W --seed S --size full --out DIR
    python3 perfbench/inputs.py expect --workload W --seed S --size full --out DIR

``gen`` writes ``DIR/bundle.json`` and ``DIR/meta.json`` (sha256 and sizes).
``expect`` rebuilds the same inputs in memory and writes ``DIR/expect.json``
with the values a correct report must hold: MS from the benchmark's own range
computation, MAS from ``synth.oracle_mas``, and, for node-referencing bundles,
whether ``parse_bundle`` resolved every node to the benchmark's own path walk.

Inputs come from ``synth.generate_tree`` plus this module's seeded node
sampling, objectives and parent-pointer walk. They never go through
``generate_sets`` or ``extract_sequence``, so changing those functions leaves
the inputs byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import random
import sys
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spec import WORKLOADS, Shape, Workload  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from archspread.model import (  # noqa: E402
    ArchitectureSolution,
    SolutionSet,
    TransformationStep,
)
from archspread.synth import generate_tree  # noqa: E402

OBJECTIVES = ("f0", "f1")


def build(workload: Workload, shape: Shape, seed: int):
    """Return (bundle document, tree, sampled node ids per set, path per node)."""
    tree = generate_tree(seed, shape.depth, shape.branching, shape.name_vocab, shape.arg_vocab)
    parent = {child: (par, step) for par, child, step in tree.edges}
    chain: dict[str, tuple[str, ...]] = {tree.root_id: (tree.root_id,)}
    steps: dict[str, tuple[TransformationStep, ...]] = {tree.root_id: ()}
    for node in tree.nodes:
        pending = []
        while node not in chain:
            pending.append(node)
            node = parent[node][0]
        for child in reversed(pending):
            par, step = parent[child]
            chain[child] = chain[par] + (child,)
            steps[child] = steps[par] + (step,)

    nodes = list(tree.nodes)
    cd = shape.cluster_depth
    cluster_roots = [n for n in nodes if len(chain[n]) == cd + 1]
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    lo, hi = workload.dispersion
    sets, picked = [], []
    for k in range(shape.sets):
        dispersion = lo + (hi - lo) * k / max(shape.sets - 1, 1)
        root = rng.choice(cluster_roots)
        cluster = [n for n in nodes if len(chain[n]) > cd and chain[n][cd] == root]
        if len(cluster) < shape.per_set:
            raise SystemExit(f"cluster of {len(cluster)} nodes cannot give {shape.per_set}")
        chosen: list[str] = []
        seen: set[str] = set()
        while len(chosen) < shape.per_set:
            node = rng.choice(nodes if rng.random() < dispersion else cluster)
            if node not in seen:
                seen.add(node)
                chosen.append(node)
        solutions = []
        for i, node in enumerate(chosen):
            seq = steps[node]
            sol = {"id": f"s{k}_{i}", "objectives": list(_objectives(seq, rng))}
            if workload.by_node:
                sol["node"] = node
            else:
                sol["sequence"] = [{"name": s.name, "args": list(s.args)} for s in seq]
            solutions.append(sol)
        sets.append(
            {"label": f"set{k}", "objective_names": list(OBJECTIVES), "solutions": solutions}
        )
        picked.append(chosen)

    doc: dict = {"name": f"perfbench-{workload.name}-seed{seed}"}
    if workload.by_node:
        doc["tree"] = {
            "root": tree.root_id,
            "nodes": nodes,
            "edges": [
                {"from": p, "to": c, "step": {"name": s.name, "args": list(s.args)}}
                for p, c, s in tree.edges
            ],
        }
    doc["sets"] = sets
    doc["provenance"] = f"perfbench {workload.name} seed {seed}"
    return doc, tree, picked, steps


def _objectives(seq, rng: random.Random) -> tuple[float, float]:
    f0 = len(seq) + rng.gauss(0.0, 0.25)
    raw = sum(zlib.crc32(f"{s.name}({','.join(s.args)})".encode()) % 101 for s in seq)
    return f0, raw / 101.0 + rng.gauss(0.0, 0.1)


def bundle_text(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def gen(workload: Workload, shape: Shape, seed: int, out: Path) -> None:
    doc, tree, picked, steps = build(workload, shape, seed)
    data = bundle_text(doc)
    (out / "bundle.json").write_bytes(data)
    seqs = [steps[n] for chosen in picked for n in chosen]
    meta = {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "n": len(seqs),
        "sets": len(picked),
        "L_pad": max(len(s) for s in seqs),
        "U": len({(s.name, s.args) for seq in seqs for s in seq}),
        "tree_nodes": len(tree.nodes),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    (out / "meta.json").write_text(json.dumps(meta) + "\n")


def expect(workload: Workload, shape: Shape, seed: int, out: Path) -> None:
    from archspread.distance import DistanceWeights
    from archspread.encoding import EncodingTable
    from archspread.io import parse_bundle
    from archspread.synth import oracle_mas

    doc, _, picked, steps = build(workload, shape, seed)
    data = bundle_text(doc)
    on_disk = (out / "bundle.json").read_bytes()
    result: dict = {"bundle_matches": on_disk == data, "sets": []}

    names = sorted({s.name for seq in steps.values() for s in seq})
    args = sorted({a for seq in steps.values() for s in seq for a in s.args})
    table = EncodingTable({t: i for i, t in enumerate(names)}, {t: i for i, t in enumerate(args)})
    weights = DistanceWeights(0.5, 0.5)
    for raw_set, chosen in zip(doc["sets"], picked):
        objectives = [sol["objectives"] for sol in raw_set["solutions"]]
        ranges = [max(col) - min(col) for col in zip(*objectives)]
        entry = {
            "label": raw_set["label"],
            "ids": [sol["id"] for sol in raw_set["solutions"]],
            "n": len(chosen),
            "L_pad": max(len(steps[n]) for n in chosen),
            "ms": math.sqrt(sum(r * r for r in ranges)),
        }
        if not workload.by_node:
            solution_set = SolutionSet(
                raw_set["label"],
                OBJECTIVES,
                tuple(
                    ArchitectureSolution(sol["id"], tuple(sol["objectives"]), steps[n])
                    for sol, n in zip(raw_set["solutions"], chosen)
                ),
            )
            entry["oracle_mas"] = oracle_mas(solution_set, table, weights)
        result["sets"].append(entry)
    result["max_d"] = float(max(s["L_pad"] for s in result["sets"]))

    if workload.by_node:
        parsed = parse_bundle(on_disk.decode())
        walk = [steps[n] for chosen in picked for n in chosen]
        got = [sol.sequence for s in parsed.sets for sol in s.solutions]
        result["path_mismatches"] = sum(a != b for a, b in zip(walk, got)) + abs(
            len(walk) - len(got)
        )
    (out / "expect.json").write_text(json.dumps(result) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("gen", "expect"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    shape = getattr(workload, args.size)
    (gen if args.action == "gen" else expect)(workload, shape, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
