"""Seeded synthetic data generation and independent brute-force oracles.

The oracles deliberately share no code with the distance or indicators
modules; they exist so the test suite can check the production path against a
straightforward reimplementation.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import TYPE_CHECKING

from .encoding import EncodingTable, PathResolver
from .model import ArchitectureSolution, SearchTree, SolutionSet, TransformationStep

if TYPE_CHECKING:
    from .distance import DistanceWeights


def generate_tree(
    seed: int, depth: int, branching: int, name_vocab: int, arg_vocab: int
) -> SearchTree:
    """Complete ``branching``-ary tree of the given depth with random steps.

    Step names and arguments are drawn uniformly from synthetic vocabularies;
    output is deterministic per seed.
    """
    if depth < 0 or branching < 1 or name_vocab < 1 or arg_vocab < 1:
        raise ValueError("depth >= 0, branching >= 1 and vocab sizes >= 1 required")
    rng = random.Random(seed)
    names = [f"op{i}" for i in range(name_vocab)]
    args = [f"elem{i}" for i in range(arg_vocab)]

    nodes = ["n0"]
    edges: list[tuple[str, str, TransformationStep]] = []
    frontier = ["n0"]
    counter = 1
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(branching):
                child = f"n{counter}"
                counter += 1
                nodes.append(child)
                step = TransformationStep(
                    rng.choice(names),
                    tuple(rng.choice(args) for _ in range(rng.randint(1, 2))),
                )
                edges.append((parent, child, step))
                next_frontier.append(child)
        frontier = next_frontier
    return SearchTree(nodes=nodes, root_id="n0", edges=tuple(edges))


def generate_sets(
    tree: SearchTree,
    seed: int,
    k_sets: int,
    n_per_set: int,
    dispersion: float = 1.0,
) -> list[SolutionSet]:
    """Sample ``k_sets`` solution sets of ``n_per_set`` nodes each.

    ``dispersion`` interpolates between clustered sampling inside a single
    root subtree (0) and uniform sampling over all nodes (1). Objectives are
    a deterministic function of the sequence plus seeded noise, so the
    objective and architectural spaces are correlated by construction.
    """
    if not (0.0 <= dispersion <= 1.0):
        raise ValueError("dispersion must lie in [0, 1]")
    all_nodes = sorted(tree.nodes)
    if len(all_nodes) < n_per_set:
        raise ValueError(
            f"tree has {len(all_nodes)} nodes, cannot sample {n_per_set} per set"
        )
    rng = random.Random(seed)
    adj = tree.children()
    paths = PathResolver(tree)
    subtrees = [_subtree_nodes(root, adj) for root, _ in adj[tree.root_id]] or [all_nodes]

    sets = []
    for k in range(k_sets):
        cluster = sorted(rng.choice(subtrees))
        solutions = []
        chosen: set[str] = set()
        attempts = 0
        while len(solutions) < n_per_set:
            pool = all_nodes if rng.random() < dispersion else cluster
            node = rng.choice(pool)
            attempts += 1
            # Fall back to the full pool once the cluster is exhausted.
            if node in chosen and attempts < 50 * n_per_set:
                continue
            if node in chosen:
                remaining = [x for x in all_nodes if x not in chosen]
                node = rng.choice(remaining)
            chosen.add(node)
            seq = paths.sequence(node)
            solutions.append(
                ArchitectureSolution(
                    id=f"s{k}_{len(solutions)}",
                    objectives=_objectives_for(seq, rng),
                    sequence=seq,
                )
            )
        sets.append(
            SolutionSet(
                label=f"set{k}",
                objective_names=("f0", "f1"),
                solutions=tuple(solutions),
            )
        )
    return sets


def _subtree_nodes(root: str, adj: dict) -> list[str]:
    out = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for child, _ in adj[node]:
            out.append(child)
            stack.append(child)
    return out


def _objectives_for(seq, rng: random.Random) -> tuple[float, float]:
    # str hash is randomized per process; crc32 keeps objectives reproducible.
    f0 = float(len(seq)) + rng.gauss(0.0, 0.1)
    raw = sum(zlib.crc32(" ".join((s.name, *s.args)).encode()) % 97 for s in seq)
    f1 = raw / 97.0 + rng.gauss(0.0, 0.1)
    return (f0, f1)


def oracle_mas(
    solution_set: SolutionSet, table: EncodingTable, w: DistanceWeights
) -> float:
    """Straightforward, from-scratch MAS recomputation for small sets.

    Explicit double loops, its own Levenshtein and padding, per-set
    normalization by the longest sequence length.
    """
    seqs = []
    for sol in solution_set.solutions:
        encoded = []
        for step in sol.sequence:
            encoded.append(
                (table.name_symbols[step.name], tuple(table.arg_symbols[a] for a in step.args))
            )
        seqs.append(encoded)

    n = len(seqs)
    l_pad = max((len(s) for s in seqs), default=0)
    if n <= 1 or l_pad == 0:
        return 0.0

    def naive_lev(a, b):
        if len(a) == 0:
            return len(b)
        if len(b) == 0:
            return len(a)
        table_ = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            table_[i][0] = i
        for j in range(len(b) + 1):
            table_[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                cost = 0 if a[i - 1] == b[j - 1] else 1
                table_[i][j] = min(
                    table_[i - 1][j] + 1, table_[i][j - 1] + 1, table_[i - 1][j - 1] + cost
                )
        return table_[len(a)][len(b)]

    def pair_distance(sa, sb):
        total = 0.0
        for k in range(l_pad):
            a = sa[k] if k < len(sa) else None
            b = sb[k] if k < len(sb) else None
            if a is None and b is None:
                continue
            if a is None or b is None:
                total += 1.0
                continue
            name_part = 0.0 if a[0] == b[0] else 1.0
            longer = max(len(a[1]), len(b[1]))
            arg_part = naive_lev(a[1], b[1]) / longer if longer else 0.0
            total += name_part * w.w_pred + arg_part * w.w_args
        return total

    total_sq = 0.0
    for i in range(n):
        ecc = 0.0
        for j in range(n):
            ecc = max(ecc, pair_distance(seqs[i], seqs[j]))
        total_sq += ecc * ecc
    return math.sqrt(total_sq / (n * l_pad * l_pad))
