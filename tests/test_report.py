"""The report writers: JSON and CSV reports, and the SVG scatter."""

import hashlib
import json
import math
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from archspread.distance import DistanceWeights
from archspread.indicators import CorrelationStats, IndicatorResult, indicators_for
from archspread.model import ArchitectureSolution, SolutionSet
from archspread.projection import Projection2D
from archspread.report import _circumcircle, _min_enclosing_circle, emit_scatter_svg, write_report


def make_result(label="s", ms=1.0, mas=0.5):
    return IndicatorResult(label, ms, mas, n=3, max_d=2.0, o=1, l_pad=2)


def make_set(label="s", ids=("a", "b", "c")):
    return SolutionSet(label, ("f0",), tuple(ArchitectureSolution(i, (0.0,)) for i in ids))


def make_map(labels, ids=("a", "b", "c")):
    """One set per label, each with solutions ``ids``; solution k of each set sits at (k, -k)."""
    coords = tuple((float(k), float(-k)) for k in range(len(ids))) * len(labels)
    return [make_set(label, ids) for label in labels], Projection2D(coords, 0.0, 1.0)


def test_report_single_set_flags_correlation_not_computable():
    docs = write_report([make_result()], None, format="json")
    report = json.loads(docs["report"])
    assert report["correlation"] == {"computable": False}
    assert len(report["sets"]) == 1
    row = report["sets"][0]
    assert set(row) >= {"label", "n", "o", "ms", "mas", "max_d", "L_pad"}


def test_report_round_trips_numeric_values():
    r = make_result(ms=1.2345678901234567, mas=0.123456789012345678)
    report = json.loads(write_report([r], None, format="json")["report"])
    assert report["sets"][0]["ms"] == r.ms
    assert report["sets"][0]["mas"] == r.mas


def test_report_identical_sets_identical_rows():
    rows = json.loads(
        write_report([make_result("x"), make_result("y")], None, format="json")["report"]
    )["sets"]
    assert (rows[0]["ms"], rows[0]["mas"]) == (rows[1]["ms"], rows[1]["mas"])


def test_csv_report_shapes():
    docs = write_report([make_result()], None, *make_map(["s"]), format="csv")
    summary_lines = docs["summary"].strip().splitlines()
    assert summary_lines[0] == "label,n,o,ms,mas,max_d,L_pad"
    assert len(summary_lines) == 2
    point_lines = docs["points"].strip().splitlines()
    assert point_lines[0] == "id,label,x,y"
    assert len(point_lines) == 4


def test_write_report_rejects_empty_results():
    with pytest.raises(ValueError):
        write_report([], None)


def test_write_report_rejects_an_unknown_format():
    with pytest.raises(ValueError, match=r"^unknown format 'xml'$"):
        write_report([make_result()], None, format="xml")


@pytest.mark.parametrize(
    "objectives", [((math.nan,), (0.0,)), ((-1e308,), (1e308,))], ids=["nan", "past-max-float"]
)
def test_report_refuses_numbers_that_json_cannot_hold(objectives):
    # A library caller that skips validate_solution_set can get a NaN MS, or
    # an infinite one from a range past the largest float. JSON has no
    # literal for either, so the writer raises rather than emit invalid JSON.
    solutions = tuple(ArchitectureSolution(f"a{k}", o) for k, o in enumerate(objectives))
    solution_set = SolutionSet("s", ("f0",), solutions)
    (result,) = indicators_for([solution_set], DistanceWeights())
    assert not math.isfinite(result.ms)
    with pytest.raises(ValueError, match="JSON compliant"):
        write_report([result], None, format="json")
    placed = Projection2D(((result.ms, 0.0), (0.0, 0.0)), 0.0, 1.0)
    with pytest.raises(ValueError, match="JSON compliant"):
        write_report([make_result()], None, [solution_set], placed, format="json")


def test_svg_single_point():
    svg = emit_scatter_svg(*make_map(["only"], ids=("a",)), [make_result("only")])
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    texts = root.findall(".//{http://www.w3.org/2000/svg}text")
    assert len(texts) == 1  # one legend entry


def test_svg_two_sets_two_circles_two_colors():
    svg = emit_scatter_svg(
        [make_set("one", ("a", "b", "c")), make_set("two", ("d", "e", "f"))],
        Projection2D(
            coords=((0.0, 0.0), (1.0, -1.0), (2.0, -2.0), (5.0, 5.0), (6.0, 5.0), (5.5, 6.0)),
            stress=0.0,
            eigenvalue_share=1.0,
        ),
        [make_result("one"), make_result("two")],
    )
    root = ET.fromstring(svg)
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    enclosing = [c for c in circles if c.get("stroke-dasharray")]
    assert len(enclosing) == 2
    fills = {c.get("fill") for c in circles if c.get("fill") not in (None, "none")}
    assert len(fills) >= 2
    # Every data marker lies inside its set's enclosing circle.
    texts = root.findall(".//{http://www.w3.org/2000/svg}text")
    assert len(texts) == 2


def test_svg_of_labels_that_xml_admits_keeps_its_bytes():
    # Markup characters are escaped; tab, newline, CR, DEL, C1 controls and
    # astral characters are XML Chars and pass as they are.
    labels = [
        "plain",
        "a & b <c> \"q\" 'q'",
        "tab\tnew\nline\rcr",
        "caf\u00e9 \U0001F600 \u007f\u0085\ufffd",
    ]
    svg = emit_scatter_svg(*make_map(labels), [make_result(l) for l in labels])
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == "94adcd4c45a6bdce50c413da21aee4fb24100f1e080548b2802f6cf3be5506f0"


@pytest.mark.parametrize(
    "bad", [*map(chr, range(0x09)), "\x0b", "\x0c", "\x0e", "\x1f", "\ufffe", "\uffff"]
)
def test_svg_replaces_characters_outside_xml_with_the_replacement_character(bad):
    label = f"a{bad}b&"
    root = ET.fromstring(emit_scatter_svg(*make_map([label]), [make_result(label)]))
    text = root.find(".//{http://www.w3.org/2000/svg}text").text
    assert text.startswith("a\ufffdb&  MAS=")


def test_enclosing_circle_of_an_outward_spiral_in_time():
    # Each point lies outside the circle of the points before it: Welzl's
    # algorithm in input order takes cubic time on this order.
    n = 2000
    points = [(k * math.cos(k * 2.4), k * math.sin(k * 2.4)) for k in range(1, n + 1)]
    start = time.perf_counter()
    cx, cy, r = _min_enclosing_circle(points)
    assert time.perf_counter() - start < n * 0.05e-3
    assert r <= n
    assert all(math.hypot(x - cx, y - cy) <= r * (1 + 1e-12) for x, y in points)


def test_enclosing_circle_of_no_points_is_the_zero_circle():
    assert _min_enclosing_circle([]) == (0.0, 0.0, 0.0)


def test_circumcircle_of_collinear_points_is_the_widest_two_point_circle():
    assert _circumcircle((0.0, 0.0), (1.0, 0.0), (3.0, 0.0)) == (1.5, 0.0, 1.5)


@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=30), st.floats(-1e3, 1e3))
def test_enclosing_circle_of_points_on_a_horizontal_line_spans_them(xs, y):
    points = [(x, y) for x in xs]
    cx, cy, r = _min_enclosing_circle(points)
    assert math.isclose(r, (max(xs) - min(xs)) / 2, rel_tol=1e-12, abs_tol=1e-9)
    assert all(math.hypot(x - cx, y - cy) <= r + 1e-9 for x, y in points)


def test_svg_requires_points():
    with pytest.raises(ValueError):
        emit_scatter_svg([], Projection2D((), 0.0, 1.0), [])


@pytest.mark.parametrize("extra", [-1, 1])
def test_writers_reject_a_map_whose_point_count_differs_from_the_solutions(extra):
    # Both sets hold ids "a" and "b": only the solutions' order places them.
    sets, proj = make_map(["x", "y"], ids=("a", "b"))
    coords = (proj.coords + ((9.0, 9.0),))[: len(proj.coords) + extra]
    wrong = Projection2D(coords, 0.0, 1.0)
    results = [make_result("x"), make_result("y")]
    for format in ("json", "csv"):
        with pytest.raises(ValueError, match=f"{4 + extra} projection points for 4 solutions"):
            write_report(results, None, sets, wrong, format=format)
    with pytest.raises(ValueError, match=f"{4 + extra} projection points for 4 solutions"):
        emit_scatter_svg(sets, wrong, results)
    points = json.loads(write_report(results, None, sets, proj)["report"])["projections"]
    assert {label: [p["id"] for p in v["points"]] for label, v in points.items()} == {
        "x": ["a", "b"],
        "y": ["a", "b"],
    }


def test_writers_refuse_a_map_of_sets_that_share_a_label():
    # A report keys each map by set label: the points of all but one set
    # labelled "x" would be lost.
    sets = [make_set("x", ("a", "b")), make_set("y", ("d",)), make_set("x", ("c",))]
    proj = Projection2D(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)), 0.0, 1.0)
    results = [make_result("x"), make_result("y")]
    for format in ("json", "csv"):
        with pytest.raises(ValueError, match="set label 'x' is repeated"):
            write_report(results, None, sets, proj, format=format)
    with pytest.raises(ValueError, match="set label 'x' is repeated"):
        emit_scatter_svg(sets, proj, results)


def golden_map():
    """Two sets by hand: id "a" in both, and "alpha"/"c" and "beta & <b>"/"a" share a point."""
    sets = [make_set("alpha", ("a", "b", "c")), make_set("beta & <b>", ("a", "d"))]
    shared = (-2.0 / 3, 0.30000000000000004)
    coords = ((0.0, 0.0), (1.5, -0.25), shared, shared, (1e-17, 2.75))
    results = [
        IndicatorResult("alpha", 0.1 + 0.2, 2 / 3, n=3, max_d=3.0, o=2, l_pad=4),
        IndicatorResult("beta & <b>", 1e-7, 1.0, 2, 1.5, 2, 4, ("note",)),
    ]
    return sets, Projection2D(coords, 0.125, 0.875, ("deg",)), results


def test_writers_keep_their_bytes_on_a_map_built_by_hand():
    # No BLAS involved: these digests were taken from the per-set writers
    # that took one projection per label, on the same points.
    sets, proj, results = golden_map()
    csv = write_report(results, None, sets, proj, format="csv")
    documents = {
        "json": write_report(results, CorrelationStats(2, 1.0, None), sets, proj)["report"],
        "summary": csv["summary"],
        "points": csv["points"],
        "svg": emit_scatter_svg(sets, proj, results),
    }
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in documents.items()}
    assert digests == {
        "json": "e7ec204696d1f65cc80044294e353ff82fb40c3fbb26c7e8a53350e313698755",
        "summary": "a56203521b44c369bac2a268cf07bb4c0de18f2963b1fad177621e8436de5334",
        "points": "2c31c69c4a82bd44c5a6ce76cdb95e9ea06ccd3c8f6554dedcc7113de850b1f8",
        "svg": "937b5db74a7fddae19844252316c7395fceeec2f9ad11527d926458e6b1ad91c",
    }
    assert csv["points"].splitlines()[3:] == [
        "c,alpha,-0.6666666666666666,0.30000000000000004",
        "a,beta & <b>,-0.6666666666666666,0.30000000000000004",
        "d,beta & <b>,1e-17,2.75",
    ]


@given(
    st.lists(
        st.tuples(
            st.one_of(st.text(max_size=6), st.just('"points": []')),
            st.lists(
                st.tuples(
                    st.text(max_size=6),
                    st.one_of(st.floats(), st.integers()),
                    st.one_of(st.floats(), st.integers()),
                ),
                max_size=4,
            ),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda labelled: labelled[0],
    )
)
def test_report_points_are_written_as_json_dumps_writes_them(maps):
    # Labels may read '"points": []'; ids may need escapes; points may be
    # -0.0 or ints, or NaN or infinite, which JSON cannot hold.
    sets = [
        SolutionSet(label, ("f0",), tuple(ArchitectureSolution(i, (0.0,)) for i, _, _ in rows))
        for label, rows in maps
    ]
    proj = Projection2D(tuple((x, y) for _, rows in maps for _, x, y in rows), 0.5, 1.0)
    doc = json.loads(write_report([make_result()], None)["report"])
    doc["projections"] = {
        label: {
            "stress": 0.5,
            "eigenvalue_share": 1.0,
            "points": [{"id": i, "x": x, "y": y} for i, x, y in rows],
        }
        for label, rows in maps
    }
    try:
        want = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError, match="JSON compliant"):
            write_report([make_result()], None, sets, proj)
        return
    assert write_report([make_result()], None, sets, proj)["report"] == want
