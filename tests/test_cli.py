import ast
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import archspread.cli as cli
import archspread.indicators as indicators
from archspread.cli import main
from archspread.distance import DistanceWeights, distance_matrix
from archspread.indicators import indicators_from_eccentricities, spread_correlation
from archspread.io import AnalysisBundle, parse_bundle, write_bundle, write_report
from archspread.model import ArchitectureSolution, SolutionSet, TransformationStep
from archspread.projection import mds_project

from conftest import one_solution_bundle, random_set


@pytest.fixture
def bundle_path(tmp_path):
    path = tmp_path / "bundle.json"
    assert main(["synth", "--sets", "3", "--n", "8", "--seed", "42", "-o", str(path)]) == 0
    return path


def test_synth_writes_parseable_bundle(bundle_path):
    doc = json.loads(bundle_path.read_text())
    assert len(doc["sets"]) == 3
    assert all(len(s["solutions"]) == 8 for s in doc["sets"])


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["synth", "--sets", "2", "--n", "5", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_output_matches_golden_digest(tmp_path):
    # synth is pure Python, so its bytes do not depend on the host's BLAS.
    path = tmp_path / "golden.json"
    assert main(["synth", "--sets", "3", "--n", "10", "--seed", "99", "-o", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "ea3f51dc8a4852a956d4bb62e3fa3ee3ac12ffafac774e168e684eefc17a0bd9"


@pytest.mark.parametrize(
    "flags, digest",
    [
        (["--w-pred", "0"], "a09aca4b62356272c77f37f51e3578c765679741520b9b8b8d00e24decc901f1"),
        (["--w-pred", "0.5"], "a923cd7a19999e349ec765907c32762131c12a5e3785a9df4f4a0a3b9591f244"),
        (["--w-pred", "1"], "816fcbf4d5957db87a7a3c3002db91c65d71f112c6ed134bef1041ec08279077"),
        (
            ["--per-set-maxd", "--mas-allpairs"],
            "723a8b0739f2b799db290b57da5750e7de43ab8ba4f3214b207f2aa180f3d1c9",
        ),
    ],
)
def test_indicators_summary_matches_golden_digest(tmp_path, flags, digest):
    # MS and MAS use no LAPACK and no BLAS dot, so the summary's bytes do not
    # depend on the host's numerical libraries.
    path = tmp_path / "golden.json"
    synth = ["synth", "--sets", "3", "--n", "12", "--seed", "99", "--dispersion", "0.4"]
    assert main(synth + ["-o", str(path)]) == 0
    out = tmp_path / "report.csv"
    assert main(["indicators", str(path), "--format", "csv", "-o", str(out)] + flags) == 0
    summary = (tmp_path / "report_summary.csv").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == digest


def test_validate_accepts_synth_output(bundle_path, capsys):
    assert main(["validate", str(bundle_path)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_rejects_broken_bundle(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "sets": [{"label": "s"}]}')
    assert main(["validate", str(path)]) == 1


INVARIANT_VIOLATIONS = (
    "solution 'a': duplicate id",
    "solution 'b': 2 objectives, expected 1",
    "set 'empty': must contain at least one solution",
)


@pytest.fixture
def violating_path(tmp_path):
    def sol(sol_id, objectives):
        return {"id": sol_id, "objectives": objectives, "sequence": []}

    path = tmp_path / "violating.json"
    doc = {
        "name": "violating",
        "sets": [
            {
                "label": "s",
                "objective_names": ["f0"],
                "solutions": [sol("a", [1.0]), sol("a", [2.0]), sol("b", [1.0, 2.0])],
            },
            {"label": "empty", "objective_names": ["f0"], "solutions": []},
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def test_validate_prints_each_invariant_violation(violating_path, capsys):
    assert main(["validate", str(violating_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "".join(f"violation: {v}\n" for v in INVARIANT_VIOLATIONS)


def test_compare_rejects_invariant_violations_in_one_error(violating_path, capsys):
    assert main(["compare", str(violating_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {'; '.join(INVARIANT_VIOLATIONS)}\n"


def extreme_objectives_bundle(path, magnitude):
    """Three sets whose objectives reach -magnitude and +magnitude; MS and MAS vary by set."""
    sets = [
        {
            "label": f"s{i}",
            "objective_names": ["f0", "f1"],
            "solutions": [
                {"id": "a", "objectives": [-magnitude / (i + 1), 0.0], "sequence": []},
                {
                    "id": "b",
                    "objectives": [magnitude, 1.0],
                    "sequence": [{"name": "op", "args": ["x"]}] * (i + 1),
                },
            ],
        }
        for i in range(3)
    ]
    path.write_text(json.dumps({"name": "extreme", "sets": sets}))
    return path


def refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_compare_on_ranges_past_the_squares_writes_json_and_no_warning(tmp_path, capsys):
    path = extreme_objectives_bundle(tmp_path / "big.json", 1e200)
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", str(path), "-o", str(report)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(report.read_text(), parse_constant=refuse_constant)
    ranges = [1e200 + 1e200 / (i + 1) for i in range(3)]
    assert [s["ms"] for s in doc["sets"]] == [math.hypot(r, 1.0) for r in ranges]
    assert doc["correlation"]["pearson"] is not None


@pytest.mark.parametrize("command", ["validate", "indicators", "mds", "compare"])
def test_objective_range_past_the_largest_float_is_data_error(tmp_path, capsys, command):
    path = extreme_objectives_bundle(tmp_path / "huge.json", 1.7e308)
    assert main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "set 's0': objective 'f0' has a range past the largest float" in err


def test_validate_resolves_long_chain(tmp_path, capsys):
    length = 3000
    nodes = [f"n{i}" for i in range(length + 1)]
    doc = {
        "name": "chain",
        "tree": {
            "root": "n0",
            "nodes": nodes,
            "edges": [
                {"from": a, "to": b, "step": {"name": f"r{i}", "args": []}}
                for i, (a, b) in enumerate(zip(nodes, nodes[1:]))
            ],
        },
        "sets": [
            {
                "label": "s",
                "objective_names": ["f0"],
                "solutions": [{"id": "leaf", "objectives": [0.0], "node": nodes[-1]}],
            }
        ],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    # Linear work is ~15 us per step; 0.5 ms per step leaves room for a slow
    # host but not for work that grows with the square of the chain.
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    assert time.perf_counter() - start < length * 0.5e-3
    assert "ok: chain" in capsys.readouterr().out
    sequence = parse_bundle(path.read_text()).sets[0].solutions[0].sequence
    assert len(sequence) == length
    assert (sequence[0].name, sequence[-1].name) == ("r0", f"r{length - 1}")


def test_missing_file_is_data_error(tmp_path):
    assert main(["indicators", str(tmp_path / "nope.json")]) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["indicators", "x.json", "--format", "yaml"])
    assert excinfo.value.code == 2


def test_indicators_json_report(bundle_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["indicators", str(bundle_path), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["sets"]) == 3
    for row in report["sets"]:
        assert 0.0 <= row["mas"] <= 1.0
    assert "correlation" in report


def test_indicators_csv_report(bundle_path, tmp_path):
    out = tmp_path / "report.csv"
    assert main(["indicators", str(bundle_path), "--format", "csv", "-o", str(out)]) == 0
    summary = out.with_name("report_summary.csv")
    assert summary.exists()
    assert summary.read_text().startswith("label,n,o,ms,mas")


def test_w_pred_flag_changes_distances(bundle_path, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["indicators", str(bundle_path), "--w-pred", "1.0", "-o", str(out_a)]) == 0
    assert main(["indicators", str(bundle_path), "--w-pred", "0.0", "-o", str(out_b)]) == 0
    assert out_a.read_text() != out_b.read_text()


def test_per_set_maxd_flag(bundle_path, tmp_path):
    out = tmp_path / "per.json"
    assert main(["indicators", str(bundle_path), "--per-set-maxd", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(0.0 <= row["mas"] <= 1.0 for row in report["sets"])


def test_mas_allpairs_flag_not_below_default(bundle_path, tmp_path):
    out_default = tmp_path / "d.json"
    out_allpairs = tmp_path / "p.json"
    assert main(["indicators", str(bundle_path), "-o", str(out_default)]) == 0
    assert main(["indicators", str(bundle_path), "--mas-allpairs", "-o", str(out_allpairs)]) == 0
    default = json.loads(out_default.read_text())["sets"]
    allpairs = json.loads(out_allpairs.read_text())["sets"]
    for d, p in zip(default, allpairs):
        assert p["mas"] >= d["mas"] - 1e-12


def test_mds_command_with_svg(bundle_path, tmp_path):
    out = tmp_path / "proj.json"
    svg = tmp_path / "scatter.svg"
    assert main(["mds", str(bundle_path), "-o", str(out), "--svg", str(svg)]) == 0
    report = json.loads(out.read_text())
    assert set(report["projections"]) == {"set0", "set1", "set2"}
    assert svg.read_text().startswith("<svg")


def test_degenerate_map_warns_on_stderr(tmp_path, capsys):
    # Three solutions with one sequence: every distance is 0, so no axis has mass.
    sequence = [{"name": "m", "args": ["x"]}]
    solutions = [{"id": i, "objectives": [float(k)], "sequence": sequence} for k, i in enumerate("abc")]
    doc = {"name": "same", "sets": [{"label": "s", "objective_names": ["f0"], "solutions": solutions}]}
    path = tmp_path / "same.json"
    path.write_text(json.dumps(doc))
    warning = "warning: degenerate matrix: no positive eigenvalue mass, all-zero coordinates\n"
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().err == ""
    for command, expected in (("indicators", ""), ("mds", warning), ("compare", warning)):
        assert main([command, str(path), "-o", str(tmp_path / f"{command}.json")]) == 0
        assert capsys.readouterr().err == expected, command
    for command in ("mds", "compare"):
        projection = json.loads((tmp_path / f"{command}.json").read_text())["projections"]["s"]
        assert (projection["stress"], projection["eigenvalue_share"]) == (0.0, 1.0)
        assert [(p["x"], p["y"]) for p in projection["points"]] == [(0.0, 0.0)] * 3
        assert "diagnostics" not in projection


def test_compare_reports_everything(bundle_path, tmp_path):
    out = tmp_path / "cmp.json"
    assert main(["compare", str(bundle_path), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {"sets", "correlation", "projections"} <= set(report)


def test_compare_hashes_each_distinct_step_at_most_once(bundle_path, tmp_path, monkeypatch):
    sets = parse_bundle(bundle_path.read_text()).sets
    distinct = {step for s in sets for sol in s.solutions for step in sol.sequence}
    hashed = []

    def counting(step):
        hashed.append(step)
        return hash((step.name, step.args))

    monkeypatch.setattr(TransformationStep, "__hash__", counting)
    assert main(["compare", str(bundle_path), "-o", str(tmp_path / "cmp.json")]) == 0
    assert 0 < len(hashed) <= len(distinct)


def test_compare_byte_identical_across_runs(bundle_path, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["compare", str(bundle_path), "-o", str(out_a)]) == 0
    assert main(["compare", str(bundle_path), "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def child_env(**extra):
    """Environment for a fresh interpreter that imports this checkout's archspread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_compare_byte_identical_across_processes(tmp_path):
    bundle = tmp_path / "bundle.json"
    assert main(["synth", "--sets", "3", "--n", "10", "--seed", "99", "-o", str(bundle)]) == 0
    # The last bits of the eigenvectors depend on the BLAS thread count.
    blas = {f"{k}_NUM_THREADS": "1" for k in ("OPENBLAS", "OMP", "MKL")}
    outputs = set()
    for hash_seed in ("1", "2", "3"):
        report, svg = tmp_path / f"r{hash_seed}.json", tmp_path / f"s{hash_seed}.svg"
        command = ["compare", str(bundle), "-o", str(report), "--svg", str(svg)]
        subprocess.run(
            [sys.executable, "-m", "archspread.cli", *command],
            env=child_env(PYTHONHASHSEED=hash_seed, **blas),
            check=True,
        )
        outputs.add((report.read_bytes(), svg.read_bytes()))
    assert len(outputs) == 1


PROGRAM_COMMANDS = [
    ["validate", "{bundle}"],
    ["indicators", "{bundle}", "--format", "csv", "-o", "r.csv"],
    ["compare", "{bundle}", "--svg", "m.svg", "-o", "r.json"],
]


@pytest.mark.parametrize("command", PROGRAM_COMMANDS, ids=lambda c: c[0])
def test_program_writes_what_main_writes(bundle_path, tmp_path, monkeypatch, capsys, command):
    # Run as the program, main freezes the heap at exit, so the interpreter
    # tears down less of it; every output must still be whole once the
    # process has ended.
    argv = [str(bundle_path) if a == "{bundle}" else a for a in command]
    written = {}
    for where in ("child", "in_process"):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        if where == "child":
            blas = {f"{k}_NUM_THREADS": "1" for k in ("OPENBLAS", "OMP", "MKL")}
            child = subprocess.run(
                [sys.executable, "-m", "archspread.cli", *argv],
                env=child_env(**blas), capture_output=True, check=True,
            )
            stdout = child.stdout
        else:
            assert main(argv) == 0
            stdout = capsys.readouterr().out.encode()
        files = {p.name: p.read_bytes() for p in sorted(Path.cwd().iterdir())}
        written[where] = (stdout, files)
    assert written["child"] == written["in_process"]
    assert written["child"][0] or written["child"][1]


def test_main_with_argv_leaves_process_state_alone(bundle_path, tmp_path, monkeypatch):
    registered = []
    monkeypatch.setattr(cli.atexit, "register", registered.append)
    state = gc.isenabled(), gc.get_freeze_count()
    monkeypatch.chdir(tmp_path)
    for command in PROGRAM_COMMANDS:
        assert main([str(bundle_path) if a == "{bundle}" else a for a in command]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == state
    assert registered == []


def test_main_as_the_program_registers_the_freeze_once(bundle_path, monkeypatch):
    class Callbacks(list):
        register = list.append

        def unregister(self, func):
            self[:] = [f for f in self if f != func]

    callbacks = Callbacks()
    monkeypatch.setattr(cli, "atexit", callbacks)
    monkeypatch.setattr(sys, "argv", ["archspread", "validate", str(bundle_path)])
    assert main() == 0
    assert main() == 0
    assert callbacks == [gc.freeze]


@pytest.mark.parametrize("command", ["indicators", "mds", "compare"])
@pytest.mark.parametrize("w_pred", ["1.5", "-0.1", "nan"])
def test_w_pred_outside_unit_interval_is_usage_error(bundle_path, command, w_pred, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(bundle_path), "--w-pred", w_pred])
    assert excinfo.value.code == 2
    assert "--w-pred" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--sets", "0"),
        ("--sets", "-2"),
        ("--n", "0"),
        ("--depth", "-1"),
        ("--branching", "0"),
        ("--name-vocab", "0"),
        ("--arg-vocab", "0"),
        ("--dispersion", "2"),
        ("--dispersion", "nan"),
    ],
)
def test_synth_flag_out_of_range_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "b.json"
    args = {"--sets": "2", "--n": "3", "--seed": "1", flag: value}
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", *(t for item in args.items() for t in item), "-o", str(out)])
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["indicators"],
        ["indicators", "--format", "csv"],
        ["mds"],
        ["compare"],
    ],
)
def test_numeric_command_on_bundle_without_sets_is_data_error(tmp_path, capsys, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "x", "sets": []}))
    assert main([*command, str(path)]) == 1
    assert capsys.readouterr().err == "error: at least one solution set is required\n"


def test_validate_accepts_bundle_without_sets(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "x", "sets": []}))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok: x: 0 set(s)\n"


def test_joint_projection_keeps_ids_that_join_to_the_same_string_apart(tmp_path):
    # Set "a/b" with solution "c" and set "a" with solution "b/c" both read
    # "a/b/c" when label and id are joined with "/".
    def solution(sol_id, name, arg):
        return {"id": sol_id, "objectives": [0.0], "sequence": [{"name": name, "args": [arg]}]}

    sets = [
        {"label": "a/b", "objective_names": ["f0"],
         "solutions": [solution("c", "x", "p"), solution("d", "y", "q")]},
        {"label": "a", "objective_names": ["f0"],
         "solutions": [solution("b/c", "z", "r"), solution("e", "x", "q")]},
    ]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"name": "collide", "sets": sets}))
    out = tmp_path / "proj.json"
    assert main(["mds", str(path), "-o", str(out)]) == 0
    points = {
        label: {p["id"]: (p["x"], p["y"]) for p in proj["points"]}
        for label, proj in json.loads(out.read_text())["projections"].items()
    }

    bundle = parse_bundle(path.read_text())
    everything = SolutionSet(
        "all", ("f0",), tuple(sol for s in bundle.sets for sol in s.solutions)
    )
    joint = mds_project(distance_matrix(everything, DistanceWeights()))
    assert points["a/b"]["c"] == joint.coords[0]
    assert points["a"]["b/c"] == joint.coords[2]
    assert points["a/b"]["c"] != points["a"]["b/c"]


def test_validate_reports_huge_integer_objective_as_data_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"name": "x", "sets": [{"label": "s", "objective_names": ["f0"], "solutions":'
        ' [{"id": "a", "objectives": [1' + "0" * 400 + '], "sequence": []}]}]}'
    )
    assert main(["validate", str(path)]) == 1
    assert "$.sets[0].solutions[0].objectives[0]: must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["$.name", "$.sets[1].label", "$.sets[1].solutions[0].id"])
@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["indicators", "--format", "csv", "-o", "r.csv"],
        ["compare", "--svg", "m.svg", "-o", "r.json"],
    ],
)
def test_lone_surrogate_in_printed_string_is_data_error_with_path(
    tmp_path, monkeypatch, capsys, path, command
):
    # json.loads accepts the escape; no UTF-8 output can carry the character.
    def sol(sol_id, objective):
        return {"id": sol_id, "objectives": [objective], "sequence": [{"name": "m"}]}

    doc = {
        "name": "n",
        "sets": [
            {
                "label": label,
                "objective_names": ["f0"],
                "solutions": [sol("a", 0.0), sol("b", 1.0)],
            }
            for label in ("s", "t", "u")
        ],
    }
    if path == "$.name":
        doc["name"] = "a\ud800"
    elif path.endswith("label"):
        doc["sets"][1]["label"] = "a\ud800"
    else:
        doc["sets"][1]["solutions"][0]["id"] = "a\ud800"
    bundle = tmp_path / "surrogate.json"
    bundle.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main([command[0], str(bundle), *command[1:]]) == 1
    assert capsys.readouterr().err == f"error: {path}: contains a lone surrogate\n"


def labelled_bundle(tmp_path, labels):
    """A bundle of one two-solution set per label."""
    sets = [
        {
            "label": label,
            "objective_names": ["f0"],
            "solutions": [
                {"id": "a", "objectives": [0.0], "sequence": []},
                {"id": "b", "objectives": [1.0 + k], "sequence": [{"name": "m", "args": ["x"]}]},
            ],
        }
        for k, label in enumerate(labels)
    ]
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({"name": "labelled", "sets": sets}))
    return path


def test_svg_of_labels_outside_xml_chars_parses(tmp_path):
    # Valid JSON and accepted by validate, but XML 1.0 admits neither character.
    bundle = labelled_bundle(tmp_path, ["a\u0001b", "c\uffffd"])
    assert main(["validate", str(bundle)]) == 0
    svg = tmp_path / "m.svg"
    assert main(["compare", str(bundle), "--svg", str(svg), "-o", str(tmp_path / "r.json")]) == 0
    texts = ET.parse(svg).getroot().findall(".//{http://www.w3.org/2000/svg}text")
    assert [t.text.split("  ")[0] for t in texts] == ["a\ufffdb", "c\ufffdd"]


def test_output_files_are_utf8_under_any_locale(tmp_path):
    bundle = labelled_bundle(tmp_path, ["caf\u00e9", "na\u00efve", "\u6f22"])
    outputs = {}
    for mode, env in (("utf8", {"PYTHONUTF8": "1"}), ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0"})):
        out = tmp_path / mode
        out.mkdir()
        for argv in (
            ["compare", str(bundle), "--svg", "m.svg", "-o", "r.json"],
            ["indicators", str(bundle), "--format", "csv", "-o", "r.csv"],
            ["synth", "--sets", "2", "--n", "3", "--seed", "1", "-o", "b.json"],
        ):
            subprocess.run(
                [sys.executable, "-m", "archspread.cli", *argv],
                env=child_env(**env), cwd=out, check=True, capture_output=True,
            )
        outputs[mode] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert set(outputs["utf8"]) == {"m.svg", "r.json", "r_summary.csv", "r_points.csv", "b.json"}
    assert outputs["ascii"] == outputs["utf8"]
    assert "caf\u00e9".encode() in outputs["ascii"]["m.svg"]


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, archspread.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_indicators_csv_skips_correlation(bundle_path, monkeypatch):
    def fail(results):
        raise AssertionError("correlation computed for CSV output")

    monkeypatch.setattr(indicators, "spread_correlation", fail)
    assert main(["indicators", str(bundle_path), "--format", "csv"]) == 0


@pytest.mark.parametrize(
    "content, detail",
    [
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth", id="deep"),
        pytest.param(one_solution_bundle("1" * 5000), "digits", id="big-int"),
        pytest.param(b'{"name": ', "Expecting value", id="malformed"),
        pytest.param(b'{"name": "caf\xe9", "sets": []}', "can't decode byte 0xe9", id="latin-1"),
    ],
)
def test_unreadable_json_is_data_error_at_root(tmp_path, capsys, content, detail):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: $: invalid JSON: ")
    assert detail in err
    assert err.count("\n") == 1


def test_repeated_warnings_print_once_per_path_pattern(tmp_path, capsys):
    solutions = [
        {"id": f"s{i}", "objectives": [0.0], "sequence": [], "stray": i} for i in range(3000)
    ]
    solutions[7]["other"] = True
    doc = {
        "name": "noisy",
        "extra": 1,
        "sets": [{"label": "s", "objective_names": ["f0"], "solutions": solutions}],
    }
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().err == (
        "warning: ignored unknown field $.extra\n"
        "warning: ignored unknown field $.sets[*].solutions[*].stray (3000 occurrences)\n"
        "warning: ignored unknown field $.sets[0].solutions[7].other\n"
    )
    assert len(parse_bundle(path.read_text()).warnings) == 3002


@pytest.mark.parametrize("shape", ["one object", "every solution"])
def test_ten_thousand_unknown_fields_validate_in_time(tmp_path, capsys, shape):
    fields = 10_000
    if shape == "one object":
        solutions = [{"id": "a", "objectives": [0.0], "sequence": []}]
        solutions[0].update((f"x{i}", i) for i in range(fields))
    else:
        solutions = [
            {"id": f"s{i}", "objectives": [0.0], "sequence": [], "stray": i} for i in range(fields)
        ]
    doc = {
        "name": "noisy",
        "sets": [{"label": "s", "objective_names": ["f0"], "solutions": solutions}],
    }
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(doc))
    # Linear work is under 10 us per field; a pass over all warnings for
    # each warning would take seconds.
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    assert time.perf_counter() - start < fields * 0.2e-3
    err = capsys.readouterr().err
    assert err.count("\n") == (fields if shape == "one object" else 1)


def test_validate_and_synth_load_no_numpy(bundle_path, tmp_path):
    # numpy itself may sit in sys.modules as a lazy module; its code has not
    # run as long as none of its submodules (numpy.core, numpy._core, ...) is there.
    # Nor do they import dataclasses, unless the interpreter's start-up did.
    synth = ["synth", "--sets", "2", "--n", "5", "--seed", "1", "-o", str(tmp_path / "b.json")]
    code = (
        "import sys; preloaded = 'dataclasses' in sys.modules; "
        "from archspread.cli import main; "
        f"assert main({['validate', str(bundle_path)]!r}) == 0; "
        f"assert main({synth!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.'))); "
        "print(preloaded or 'dataclasses' not in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.strip().splitlines()[-2:] == ["[]", "True"]


def test_validate_and_synth_run_no_numeric_layer_code(bundle_path, tmp_path):
    # The layer modules are registered at import, for tools that look them up
    # in sys.modules, but no frame of their code runs.
    synth = ["synth", "--sets", "2", "--n", "5", "--seed", "1", "-o", str(tmp_path / "b.json")]
    code = (
        "import os, sys; ran = set(); "
        "sys.settrace(lambda frame, event, arg: ran.add(frame.f_code.co_filename)); "
        "import archspread.cli as cli; "
        f"assert cli.main({['validate', str(bundle_path)]!r}) == 0; "
        f"assert cli.main({synth!r}) == 0; "
        "sys.settrace(None); "
        "layers = ('distance', 'indicators', 'projection'); "
        "files = {os.path.join(os.path.dirname(cli.__file__), f'{m}.py') for m in layers}; "
        "assert all(f'archspread.{m}' in sys.modules for m in layers); "
        "print(sorted(ran & files))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_validate_and_synth_run_only_modules_that_bind_no_numpy(bundle_path, tmp_path):
    # A lazy module's class is ModuleType again once its code has run. Only
    # _lazy, which makes the lazy numpy module, may hold it.
    synth = ["synth", "--sets", "2", "--n", "5", "--seed", "1", "-o", str(tmp_path / "b.json")]
    code = (
        "import sys, types; "
        "import archspread._lazy as lazy, archspread.cli as cli; "
        f"assert cli.main({['validate', str(bundle_path)]!r}) == 0; "
        f"assert cli.main({synth!r}) == 0; "
        "ran = sorted(n for n, m in sys.modules.items() "
        "if n.split('.')[0] == 'archspread' and type(m) is types.ModuleType); "
        "print(ran); "
        "print(sorted(n for n in ran if any(v is lazy.np for v in vars(sys.modules[n]).values())))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    ran, binding = out.strip().splitlines()[-2:]
    modules = ["archspread", "archspread._lazy", "archspread.cli", "archspread.encoding"]
    modules += ["archspread.io", "archspread.model", "archspread.synth"]
    assert ran == repr(modules)
    assert binding == "['archspread._lazy']"


def benchmark_trace_targets():
    """``TARGETS`` of perfbench/traced.py, read without running that script."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    return targets


def test_benchmark_trace_targets_resolve_after_importing_cli_alone():
    # perfbench/traced.py imports archspread.cli and nothing else of the
    # package, then looks up each function it wraps in sys.modules. Looking
    # one up runs its layer's code, and that must not load numpy: a traced
    # validate would pay for it.
    targets = sorted(set(benchmark_trace_targets().values()))
    assert targets
    code = (
        "import sys, archspread.cli; "
        f"targets = {targets!r}; "
        "print(sorted(f'{m}.{a}' for m, a in targets if not hasattr(sys.modules.get(m), a))); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.strip().splitlines()[-2:] == ["[]", "[]"]


def test_package_names_load_their_module_on_first_access():
    code = (
        "import importlib, sys, archspread; "
        "assert 'archspread.distance' not in sys.modules; "
        "assert {'__version__', *archspread.__all__} <= set(dir(archspread)); "
        "values = {name: getattr(archspread, name) for name in archspread.__all__}; "
        "assert all(v.__module__ == 'archspread.' + archspread._HOMES[n] "
        "for n, v in values.items()); "
        "assert all(v is getattr(importlib.import_module(v.__module__), n) "
        "for n, v in values.items()); "
        "print(hasattr(archspread, 'no_such_name'), len(values))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "29"]


def test_import_without_numpy_fails_at_import():
    code = "import sys; sys.modules['numpy'] = None; import archspread"
    child = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert child.returncode != 0
    assert "ModuleNotFoundError: No module named 'numpy'" in child.stderr


def repeated_sequence_bundle(rng):
    """1 to 4 sets whose solutions draw their sequences from one small pool,
    so sequences repeat within and across sets.

    At least three distinct sequences are in use, so both axes belong to
    nonzero eigenvalues; fewer are pinned in ``test_projection.py``.
    """
    pool = list(dict.fromkeys(sol.sequence for sol in random_set(rng, n=12, max_len=6).solutions))
    assert len(pool) >= 3
    pool = pool[: rng.randint(3, len(pool))]
    n = rng.randint(3, 100)
    sequences = pool[:3] + [rng.choice(pool) for _ in range(n - 3)]
    rng.shuffle(sequences)
    cuts = [0, *sorted(rng.sample(range(1, n), rng.randint(0, 3))), n]
    sets = []
    for k, (start, stop) in enumerate(zip(cuts, cuts[1:])):
        solutions = tuple(
            ArchitectureSolution(f"s{k}_{i}", (rng.uniform(-5, 5), rng.uniform(-5, 5)), seq)
            for i, seq in enumerate(sequences[start:stop])
        )
        sets.append(SolutionSet(f"set{k}", ("f0", "f1"), solutions))
    return AnalysisBundle(name="repeats", sets=tuple(sets))


def distinct_spectrum(d, m):
    """Descending eigenvalues of the doubly centred ``d``, a matrix over ``m``
    distinct rows, repeated, without the ``len(d) - m`` that are 0.

    Those are 0 in exact arithmetic; ``eigvalsh`` returns them as rounding
    noise of either sign, and the positive ones would add up to ~1e-15 of
    spurious mass. The ``len(d) - m`` nearest 0 are dropped.
    """
    d2 = d * d
    mean = d2.mean(axis=1)
    evals = np.linalg.eigvalsh(-0.5 * (d2 - mean[:, None] - mean[None, :] + mean.mean()))
    return np.sort(evals[np.argsort(np.abs(evals), kind="stable")[len(d) - m :]])[::-1]


def expanded_matrix_report(bundle):
    """Oracle: the compare report from the unweighted MDS of the matrix over
    every solution, and MAS from the row maxima of each set's block of it."""
    sets = list(bundle.sets)
    everything = SolutionSet("all", ("f0", "f1"), tuple(sol for s in sets for sol in s.solutions))
    joint = distance_matrix(everything, DistanceWeights())
    spans, start = [], 0
    for s in sets:
        spans.append(slice(start, start + len(s)))
        start += len(s)
    results = indicators_from_eccentricities(
        sets, [joint.values[rows, rows].max(axis=1) for rows in spans]
    )
    correlation = spread_correlation(results) if len(results) >= 3 else None
    report = json.loads(write_report(results, correlation)["report"])
    m = len({sol.sequence for sol in everything.solutions})
    return report, mds_project(joint), distinct_spectrum(joint.values, m), spans


# On seed 224 an axis's first coordinate is 0 up to rounding, of either sign
# in the two maps; the sign must come from a coordinate above that noise.
@pytest.mark.parametrize("seed", [*range(12), 224])
def test_compare_on_repeated_sequences_matches_the_expanded_matrix(tmp_path, seed):
    bundle = repeated_sequence_bundle(random.Random(seed))
    path, out = tmp_path / "bundle.json", tmp_path / "report.json"
    path.write_text(write_bundle(bundle))
    assert main(["compare", str(path), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    want, projection, evals, spans = expanded_matrix_report(bundle)
    # The draws are generic: the top three eigenvalues are apart, so both
    # axes are unique and the two maps can be compared point by point.
    assert min(evals[0] - evals[1], evals[1] - evals[2]) > 1e-6 * evals[0]
    share = min(float(np.sum(evals[:2]) / np.sum(evals[evals > 0])), 1.0)

    for key in ("sets", "correlation"):
        assert json.dumps(report[key]) == json.dumps(want[key])
    point_of = {}
    for s, rows in zip(bundle.sets, spans):
        got = report["projections"][s.label]
        assert abs(got["stress"] - projection.stress) <= 1e-15
        assert abs(got["eigenvalue_share"] - share) <= 1e-15
        assert list(got.get("diagnostics", [])) == list(projection.diagnostics)
        assert [p["id"] for p in got["points"]] == [sol.id for sol in s.solutions]
        xy = np.array([(p["x"], p["y"]) for p in got["points"]])
        assert np.max(np.abs(xy - np.array(projection.coords[rows]))) <= 1e-12
        for sol, point in zip(s.solutions, map(tuple, xy)):
            assert point_of.setdefault(sol.sequence, point) == point
