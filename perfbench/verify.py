"""Checks on the outputs of one ``archspread`` invocation (standard library only).

``deep_check`` compares a report with the expected values ``inputs.py
expect`` wrote. It runs once per run; the driver checks every other
repetition for byte identity with the first output that passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

REL_TOL = 1e-9


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


def expected_mas(entry: dict, max_d: float) -> float:
    """The oracle normalises by the set's own L_pad; the report by ``max_d``."""
    return entry["oracle_mas"] * entry["L_pad"] / max_d if max_d else 0.0


def deep_check(command: str, outputs: dict[str, bytes], expect: dict, bundle_name: str) -> list[str]:
    """Problems found in one invocation's outputs; empty when they are correct."""
    try:
        if command == "compare":
            return _check_compare(outputs, expect)
        if command == "indicators":
            return _check_indicators_csv(outputs, expect)
        if command == "validate":
            return _check_validate(outputs, expect, bundle_name)
    except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"no check for command {command!r}"]


def _check_set_row(problems: list[str], row: dict, entry: dict, max_d: float) -> None:
    label = entry["label"]
    if row["label"] != label:
        problems.append(f"set label {row['label']!r}, expected {label!r}")
    if int(row["n"]) != entry["n"] or int(row["o"]) != 2:
        problems.append(f"{label}: n/o {row['n']}/{row['o']}, expected {entry['n']}/2")
    if int(row["L_pad"]) != entry["L_pad"]:
        problems.append(f"{label}: L_pad {row['L_pad']}, expected {entry['L_pad']}")
    if not _close(float(row["max_d"]), max_d):
        problems.append(f"{label}: max_d {row['max_d']}, expected {max_d}")
    if not _close(float(row["ms"]), entry["ms"]):
        problems.append(f"{label}: MS {row['ms']}, expected {entry['ms']!r}")
    want = expected_mas(entry, max_d)
    if not _close(float(row["mas"]), want):
        problems.append(f"{label}: MAS {row['mas']}, oracle gives {want!r}")


def _check_compare(outputs: dict[str, bytes], expect: dict) -> list[str]:
    problems: list[str] = []
    report = json.loads(outputs["report.json"])
    sets = expect["sets"]
    if len(report["sets"]) != len(sets):
        return [f"{len(report['sets'])} sets in report, expected {len(sets)}"]
    for row, entry in zip(report["sets"], sets):
        _check_set_row(problems, row, entry, expect["max_d"])
    if len(sets) < 3 and report["correlation"] != {"computable": False}:
        problems.append("correlation reported for fewer than 3 sets")

    projections = report["projections"]
    if list(projections) != [s["label"] for s in sets]:
        problems.append(f"projection labels {list(projections)}")
    for entry in sets:
        p = projections.get(entry["label"], {"points": [], "stress": -1, "eigenvalue_share": -1})
        if [pt["id"] for pt in p["points"]] != entry["ids"]:
            problems.append(f"{entry['label']}: projection ids differ from the bundle's")
        if not all(math.isfinite(pt["x"]) and math.isfinite(pt["y"]) for pt in p["points"]):
            problems.append(f"{entry['label']}: non-finite coordinate")
        for key in ("stress", "eigenvalue_share"):
            if not 0.0 <= p[key] <= 1.0:
                problems.append(f"{entry['label']}: {key} {p[key]} outside [0, 1]")

    svg = ET.fromstring(outputs["scatter.svg"])
    circles = sum(1 for el in svg.iter() if el.tag.endswith("circle"))
    want = sum(s["n"] for s in sets) + 2 * len(sets)  # points + enclosing + legend
    if circles != want:
        problems.append(f"SVG has {circles} circles, expected {want}")
    return problems


def _check_indicators_csv(outputs: dict[str, bytes], expect: dict) -> list[str]:
    problems: list[str] = []
    rows = list(csv.DictReader(io.StringIO(outputs["report_summary.csv"].decode())))
    sets = expect["sets"]
    if len(rows) != len(sets):
        return [f"{len(rows)} summary rows, expected {len(sets)}"]
    for row, entry in zip(rows, sets):
        _check_set_row(problems, row, entry, expect["max_d"])
    if outputs["report_points.csv"] != b"id,label,x,y\n":
        problems.append("points CSV is not header-only for a command without projection")
    return problems


def _check_validate(outputs: dict[str, bytes], expect: dict, bundle_name: str) -> list[str]:
    problems = []
    want = f"ok: {bundle_name}: {len(expect['sets'])} set(s)\n".encode()
    if outputs["stdout"] != want:
        problems.append(f"stdout {outputs['stdout'][:200]!r}, expected {want!r}")
    if expect.get("path_mismatches"):
        problems.append(f"{expect['path_mismatches']} parsed sequences differ from the path walk")
    return problems
