"""Golden outputs of the commands on small bundles, pinned by sha256.

Each case runs ``cli.main`` in process and checks its exit code and the
digests of its stdout, its stderr and every file it writes against
``golden_manifest.json``. The bundles are built here: two ``synth`` seeds,
and a bundle of node references into the first one's tree with parallel
edges listed out of order.

Coordinates, stress, eigenvalue share and the correlation coefficients
depend on the host's BLAS in their last bits. They are masked out of the
digests and checked against the manifest within a tolerance instead. An SVG
places its circles at coordinates rounded to two decimals, so its digest is
pinned only where no rounded value lies within 1e-9 of a rounding boundary.

A change that alters output bytes on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py

and says which entries changed and why.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import archspread.io as bundle_io
from archspread.cli import main

MANIFEST = Path(__file__).with_name("golden_manifest.json")

SYNTH = {
    "a.json": ["synth", "--sets", "3", "--n", "6", "--seed", "1", "--dispersion", "0.3"],
    "b.json": ["synth", "--sets", "4", "--n", "5", "--seed", "8", "--depth", "4"],
}
BUNDLES = ("a.json", "b.json", "refs.json")
W_PRED = (["--w-pred", "0"], ["--w-pred", "0.5"], ["--w-pred", "1"])
INDICATOR_FLAGS = (*W_PRED, ["--per-set-maxd", "--mas-allpairs"])

# Report fields that BLAS moves in the last bits, and how far they may move.
TOLERANCE = {
    "x": 1e-12,
    "y": 1e-12,
    "stress": 1e-15,
    "eigenvalue_share": 1e-15,
    "pearson": 1e-15,
    "spearman": 1e-15,
}
_FIELD = re.compile(r'"(' + "|".join(TOLERANCE) + r')": (-?[0-9][0-9.eE+-]*)')
# An SVG number within this of a two-decimal rounding boundary is not pinned.
_SVG_MARGIN = 1e-9


def cases() -> dict[str, list[str]]:
    """Every case's argv, keyed by the case id that names it in the manifest."""
    argvs = [[*argv, "-o", name] for name, argv in SYNTH.items()]
    for bundle in BUNDLES:
        argvs.append(["validate", bundle])
        for flags in INDICATOR_FLAGS:
            argvs.append(["indicators", bundle, *flags])
            argvs.append(["indicators", bundle, *flags, "--format", "csv", "-o", "r.csv"])
            argvs.append(["compare", bundle, *flags, "--svg", "map.svg", "-o", "report.json"])
        for flags in W_PRED:
            argvs.append(["mds", bundle, *flags, "--svg", "map.svg"])
    return {" ".join(argv): argv for argv in argvs}


def node_reference_bundle(source: Path, target: Path) -> None:
    """``source`` with a node reference in place of each sequence, and parallel edges.

    The edges are listed in reverse, so children are out of id order. Every
    third edge gets a parallel edge with another step, listed before it at an
    even position, where the first-listed edge wins, and after it otherwise.
    """
    doc = json.loads(source.read_text(encoding="utf-8"))
    nodes = doc["tree"]["nodes"]
    for k, s in enumerate(doc["sets"]):
        for j, sol in enumerate(s["solutions"]):
            del sol["sequence"]
            sol["node"] = nodes[(7 * j + 3 * k + 1) % len(nodes)]
    edges = []
    for e, edge in enumerate(reversed(doc["tree"]["edges"])):
        twin = {**edge, "step": {"name": "swap", "args": [f"x{e % 4}"]}}
        edges += [edge] if e % 3 else [twin, edge] if e % 2 == 0 else [edge, twin]
    doc["tree"]["edges"] = edges
    doc["name"] = "node-references"
    target.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def build_bundles(directory: Path) -> None:
    with chdir(directory):
        for name, argv in SYNTH.items():
            assert run([*argv, "-o", name])[0] == 0
    node_reference_bundle(directory / "a.json", directory / "refs.json")


@contextlib.contextmanager
def chdir(directory: Path):
    """``contextlib.chdir``, which Python 3.10 lacks."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def run(argv: list[str]) -> tuple[int, str, str, list]:
    """``main(argv)``, its stdout and stderr, and the arguments and result of every
    minimum-enclosing-circle call the SVG writer made."""
    circles = []
    find = bundle_io._min_enclosing_circle

    def recorded(points):
        circle = find(points)
        circles.append((points, circle))
        return circle

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(bundle_io, "_min_enclosing_circle", recorded):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), circles


def svg_margin(circles: list) -> float:
    """Smallest distance of an SVG number rounded to two decimals from a rounding boundary.

    The rounded numbers are the markers' pixel positions, the circles'
    centres and their radii plus the 6 px the writer adds.
    """
    values = [v for points, _ in circles for p in points for v in p]
    values += [v for _, (cx, cy, r) in circles for v in (cx, cy, r + 6)]
    return min((abs(v * 100 % 1 - 0.5) / 100 for v in values), default=math.inf)


def split_fields(text: str) -> tuple[str, dict[str, list[float]]]:
    """``text`` with every BLAS-dependent number replaced by ``?``, and those numbers by field."""
    values: dict[str, list[float]] = {}
    for field, number in _FIELD.findall(text):
        values.setdefault(field, []).append(float(number))
    return _FIELD.sub(r'"\1": ?', text), values


def sha(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def observe(argv: list[str], workdir: Path, bundles: Path) -> dict:
    """One case's manifest entry, from a run in ``workdir`` beside copies of the bundles."""
    if argv[0] != "synth":
        for name in BUNDLES:
            shutil.copy(bundles / name, workdir / name)
    inputs = set(workdir.iterdir())
    with chdir(workdir):
        code, stdout, stderr, circles = run(argv)
    documents = {"stdout": stdout, "stderr": stderr}
    for path in sorted(set(workdir.iterdir()) - inputs):
        documents[path.name] = path.read_bytes().decode("utf-8")
    entry: dict = {"exit": code, "digests": {}, "values": {}}
    for name, text in documents.items():
        if name.endswith(".svg"):
            pinned = svg_margin(circles) > _SVG_MARGIN
            entry["digests"][name] = sha(text) if pinned else None
            continue
        masked, values = split_fields(text)
        entry["digests"][name] = sha(masked)
        if values:
            entry["values"][name] = values
    return entry


@pytest.fixture(scope="module")
def bundles(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("bundles")
    build_bundles(directory)
    return directory


def test_manifest_names_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(cases())


@pytest.mark.parametrize("case", list(cases()))
def test_case_matches_golden(case, bundles, tmp_path):
    expected = json.loads(MANIFEST.read_text())[case]
    got = observe(cases()[case], tmp_path, bundles)
    assert got["exit"] == expected["exit"]
    assert got["digests"].keys() == expected["digests"].keys()
    for name, digest in expected["digests"].items():
        if digest is not None:
            assert got["digests"][name] == digest, name
    assert got["values"].keys() == expected["values"].keys()
    for name, fields in expected["values"].items():
        assert got["values"][name].keys() == fields.keys(), name
        for field, numbers in fields.items():
            assert len(got["values"][name][field]) == len(numbers), (name, field)
            for a, b in zip(got["values"][name][field], numbers):
                assert abs(a - b) <= TOLERANCE[field], (name, field, a, b)


def write_manifest() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        build_bundles(root)
        manifest = {}
        for case, argv in cases().items():
            workdir = root / f"case{len(manifest)}"
            workdir.mkdir()
            manifest[case] = observe(argv, workdir, root)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    unpinned = [c for c, e in manifest.items() if None in e["digests"].values()]
    print(f"{len(manifest)} cases written to {MANIFEST}; SVG digest left out in {unpinned}")


if __name__ == "__main__":
    write_manifest()
