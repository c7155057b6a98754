"""Differential test of whole commands: the reports of ``indicators`` and
``compare`` on valid but adversarial bundles against independent oracles.

Sequences repeat within and across sets, so ``compare``'s joint pass merges
rows and maps several solutions to one; the MAS it reports must still be the
one that ``indicators`` sweeps set by set, and both must be the textbook
double loop of ``synth.oracle_mas``.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archspread.cli import main
from archspread.distance import DistanceWeights
from archspread.encoding import build_encoding
from archspread.io import parse_bundle
from archspread.synth import oracle_mas

steps = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["mv", "cp", "réf"]),
        "args": st.lists(st.sampled_from(["x", "y", "ζ", "日本", "a b"]), max_size=5),
    }
)
sequences = st.lists(steps, max_size=6)


@st.composite
def bundles(draw):
    """1–4 sets of 1–7 solutions whose sequences are drawn from a shared pool or fresh."""
    pool = draw(st.lists(sequences, min_size=1, max_size=4))
    sets = []
    for k in range(draw(st.integers(1, 4))):
        names = draw(st.lists(st.sampled_from(["f0", "f1"]), max_size=2, unique=True))
        objectives = st.lists(
            st.floats(-1e150, 1e150, allow_nan=False), min_size=len(names), max_size=len(names)
        )
        solutions = [
            {
                "id": f"s{k}_{i}",
                "objectives": draw(objectives),
                "sequence": draw(st.sampled_from(pool) | sequences),
            }
            for i in range(draw(st.integers(1, 7)))
        ]
        sets.append({"label": f"s{k}", "objective_names": names, "solutions": solutions})
    return {"name": "differential", "sets": sets}


def brute_force_ms(solution_set):
    """Root-sum-square over objectives of the largest difference of any pair of solutions."""
    objectives = [sol.objectives for sol in solution_set.solutions]
    return math.hypot(
        *(
            max(abs(a[k] - b[k]) for a in objectives for b in objectives)
            for k in range(len(solution_set.objective_names))
        )
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@settings(max_examples=150, deadline=None)
@given(bundles())
def test_reports_match_the_oracles(workdir, doc):
    path = workdir / "bundle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    sets = parse_bundle(path.read_text(encoding="utf-8")).sets
    for w_pred in (0.0, 0.3, 0.5, 1.0):
        reports = {}
        for command in ("indicators", "compare"):
            out = workdir / f"{command}.json"
            argv = [command, str(path), "--per-set-maxd", "--w-pred", str(w_pred), "-o", str(out)]
            assert main(argv) == 0
            reports[command] = json.loads(out.read_text(encoding="utf-8"))["sets"]
        w = DistanceWeights(w_pred, 1.0 - w_pred)
        for s, got, joint in zip(sets, reports["indicators"], reports["compare"], strict=True):
            assert got["label"] == joint["label"] == s.label
            assert joint["mas"] == got["mas"]
            assert abs(got["mas"] - oracle_mas(s, build_encoding([s]), w)) <= 1e-12
            want = brute_force_ms(s)
            assert abs(got["ms"] - want) <= 1e-12 * want
            assert joint["ms"] == got["ms"]
