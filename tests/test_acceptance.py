"""Acceptance suite: one test per release criterion, each printing a
pass/fail line so the whole gate can be read off `pytest -v -s`."""

import itertools
import json
import math
import random
import time
import xml.etree.ElementTree as ET

import pytest

from archspread.cli import main
from archspread.distance import (
    DistanceMatrix,
    DistanceWeights,
    distance_matrix,
    sequence_distance,
    step_distance,
)
from archspread.encoding import build_encoding
from archspread.indicators import max_architectural_spread, max_spread
from archspread.model import TransformationStep
from archspread.projection import mds_project
from archspread.synth import generate_sets, generate_tree, oracle_mas

from conftest import random_set

W = DistanceWeights()


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok


def random_dm(rng, n, scale=3.0):
    values = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            values[i][j] = values[j][i] = rng.uniform(0.0, scale)
    return DistanceMatrix(
        ids=tuple(f"s{i}" for i in range(n)),
        values=tuple(tuple(r) for r in values),
        l_pad=math.ceil(scale),
    )


def test_criterion_1_mas_limit_cases():
    singleton = DistanceMatrix(ids=("a",), values=((0.0,),), l_pad=1)
    ok = max_architectural_spread(singleton) == 0.0
    pair = DistanceMatrix(
        ids=("a", "b"), values=((0.0, 3.0), (3.0, 0.0)), l_pad=3
    )
    ok = ok and abs(max_architectural_spread(pair) - 1.0) <= 1e-12
    report("criterion 1: MAS limit cases (singleton=0, max-distance pair=1)", ok)


def test_criterion_2_mas_bounds_and_permutation_invariance():
    rng = random.Random(2024)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 50)
        dm = random_dm(rng, n)
        mas = max_architectural_spread(dm)
        ok = ok and 0.0 <= mas <= 1.0
        perm = list(range(n))
        rng.shuffle(perm)
        pvals = tuple(
            tuple(dm.values[perm[i]][perm[j]] for j in range(n)) for i in range(n)
        )
        pdm = DistanceMatrix(ids=dm.ids, values=pvals, l_pad=dm.l_pad)
        ok = ok and max_architectural_spread(pdm) == mas
        if not ok:
            break
    report("criterion 2: MAS in [0,1] and exactly permutation-invariant (1000 sets)", ok)


def test_criterion_3_oracle_equivalence():
    rng = random.Random(31337)
    ok = True
    for _ in range(200):
        s = random_set(rng, n=rng.randint(1, 10))
        table = build_encoding([s])
        dm = distance_matrix(s, W)
        ok = ok and abs(max_architectural_spread(dm) - oracle_mas(s, table, W)) <= 1e-12

    for _ in range(200):
        s = random_set(rng, n=rng.randint(1, 10), n_obj=3)
        o = len(s.objective_names)
        total = 0.0
        for i in range(o):
            best = 0.0
            for a in s.solutions:
                for b in s.solutions:
                    best = max(best, (a.objectives[i] - b.objectives[i]) ** 2)
            total += best
        ok = ok and max_spread(s) == math.sqrt(total)
    report("criterion 3: MAS vs oracle within 1e-12, MS vs pairwise brute force exact", ok)


def test_criterion_4_distance_metric_axioms():
    # Exhaustive: sequences of length <= 3 over 2 names and 0..1 args from a
    # 2-symbol arg vocabulary.
    steps = [
        TransformationStep(name, args)
        for name in ("op0", "op1")
        for args in [(), ("e0",), ("e1",)]
    ]
    seqs = [()]
    for length in range(1, 4):
        seqs.extend(itertools.product(steps, repeat=length))

    symmetric = identity = True
    for a, b in itertools.combinations_with_replacement(seqs, 2):
        d_ab = sequence_distance(a, b, W)
        symmetric = symmetric and d_ab == sequence_distance(b, a, W)
        if a == b:
            identity = identity and d_ab == 0.0

    violations = []
    for a, b, c in itertools.product(random.Random(4).sample(seqs, 40), repeat=3):
        d_ab = sequence_distance(a, b, W)
        d_ac = sequence_distance(a, c, W)
        d_cb = sequence_distance(c, b, W)
        if d_ab > d_ac + d_cb + 1e-9:
            violations.append((a, b, c))
    ok = symmetric and identity and len(violations) == 0
    if violations:
        print(f"triangle inequality violations: {len(violations)}, first: {violations[0]}")
    report(
        "criterion 4: symmetry/identity exact on exhaustive space, "
        f"triangle violations = {len(violations)}",
        ok,
    )


def test_criterion_5_step_distance_endpoints_on_weight_grid():
    ok = True
    identical_a = TransformationStep("op0", ("e0", "e1"))
    identical_b = TransformationStep("op0", ("e0", "e1"))
    different_a = TransformationStep("op0", ("e0", "e1"))
    different_b = TransformationStep("op1", ("e2", "e3"))
    for i in range(11):
        w = DistanceWeights(w_pred=i / 10, w_args=1 - i / 10)
        ok = ok and step_distance(identical_a, identical_b, w) == 0.0
        ok = ok and step_distance(different_a, different_b, w) == pytest.approx(1.0, abs=1e-15)
    report("criterion 5: step endpoints (identical=0, fully different=1) on 11-weight grid", ok)


def test_criterion_6_mds_fidelity():
    rng = random.Random(606)
    points = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(50)]
    n = len(points)
    values = tuple(
        tuple(math.dist(points[i], points[j]) for j in range(n)) for i in range(n)
    )
    dm = DistanceMatrix(
        ids=tuple(f"p{i}" for i in range(n)), values=values, l_pad=20
    )
    proj = mds_project(dm)
    worst_rel = 0.0
    for i in range(n):
        for j in range(n):
            want = values[i][j]
            if want == 0.0:
                continue
            got = math.dist(proj.coords[i], proj.coords[j])
            worst_rel = max(worst_rel, abs(got - want) / want)
    ok = worst_rel < 1e-6 and proj.stress < 1e-6 and proj.eigenvalue_share >= 0.999
    report(
        f"criterion 6: MDS recovery (rel err {worst_rel:.2e}, stress {proj.stress:.2e}, "
        f"share {proj.eigenvalue_share:.6f})",
        ok,
    )


def test_criterion_7_paper_scale_under_60s(tmp_path):
    start = time.monotonic()
    tree = generate_tree(seed=77, depth=9, branching=2, name_vocab=6, arg_vocab=9)
    sets = generate_sets(tree, seed=77, k_sets=2, n_per_set=277)  # 554 total
    assert sum(len(s) for s in sets) == 554
    from archspread.indicators import indicators_for
    from archspread.io import emit_scatter_svg
    from archspread.model import ArchitectureSolution, SolutionSet

    results = indicators_for(sets, W)
    merged = SolutionSet(
        "__all__",
        sets[0].objective_names,
        tuple(
            ArchitectureSolution(f"{s.label}/{sol.id}", sol.objectives, sol.sequence)
            for s in sets
            for sol in s.solutions
        ),
    )
    dm = distance_matrix(merged, W)
    proj = mds_project(dm)
    svg = emit_scatter_svg(sets, proj, results)  # merged lists the sets' solutions in order
    elapsed = time.monotonic() - start

    root = ET.fromstring(svg)
    schema_ok = (
        root.tag == "{http://www.w3.org/2000/svg}svg"
        and root.get("width") is not None
        and len(svg.encode()) < 2_000_000
    )
    ok = elapsed < 60.0 and schema_ok
    report(f"criterion 7: 554 solutions end-to-end in {elapsed:.1f}s, SVG valid", ok)


def test_criterion_8_dispersion_ordering():
    tree = generate_tree(seed=8, depth=6, branching=2, name_vocab=5, arg_vocab=8)

    def mean_mas(dispersion):
        total = 0.0
        for seed in range(30):
            (s,) = generate_sets(tree, seed=seed, k_sets=1, n_per_set=10, dispersion=dispersion)
            total += max_architectural_spread(distance_matrix(s, W))
        return total / 30

    clustered, uniform = mean_mas(0.0), mean_mas(1.0)
    ok = clustered < uniform
    report(
        f"criterion 8: mean MAS clustered {clustered:.4f} < uniform {uniform:.4f} (30 seeds)",
        ok,
    )


def test_criterion_9_compare_is_byte_identical(tmp_path):
    bundle = tmp_path / "bundle.json"
    assert main(["synth", "--sets", "3", "--n", "10", "--seed", "99", "-o", str(bundle)]) == 0
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["compare", str(bundle), "-o", str(out_a), "--svg", str(svg_a)]) == 0
    assert main(["compare", str(bundle), "-o", str(out_b), "--svg", str(svg_b)]) == 0
    ok = out_a.read_bytes() == out_b.read_bytes() and svg_a.read_bytes() == svg_b.read_bytes()
    report("criterion 9: compare output byte-identical across runs", ok)
