"""Report serialization and SVG scatter emission.

Of the commands, only ``indicators``, ``mds`` and ``compare`` load this
module; ``validate`` and ``synth`` never compile it.
"""

from __future__ import annotations

import io as _stdio
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _ascii
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .indicators import CorrelationStats, IndicatorResult
    from .model import SolutionSet
    from .projection import Projection2D


def write_report(
    results: list[IndicatorResult],
    correlation: CorrelationStats | None,
    sets: Sequence[SolutionSet] = (),
    projection: Projection2D | None = None,
    format: str = "json",
) -> dict[str, str]:
    """Serialize indicator results, and the map of ``sets`` if any, to named documents.

    Returns a mapping from logical document name to text: {"report": json}
    for JSON, or {"summary": csv, "points": csv} for CSV. A NaN or infinite
    number raises ``ValueError``: JSON has no literal for it.
    """
    if not results:
        raise ValueError("results must be non-empty")
    placed = _set_points(sets, projection)
    if format == "json":
        return {"report": _json_report(results, correlation, placed, projection)}
    if format == "csv":
        return _csv_report(results, placed)
    raise ValueError(f"unknown format {format!r}")


def _set_points(
    sets: Sequence[SolutionSet], projection: Projection2D | None
) -> list[tuple[str, list[tuple[str, float, float]]]]:
    """Each set's label and rows ``(id, x, y)``; solution ``i`` of all sets has point ``i``.

    A map is keyed by set label, so two sets with one label are refused.
    """
    if projection is None:
        return []
    total = sum(len(s) for s in sets)
    if len(projection.coords) != total:
        raise ValueError(f"{len(projection.coords)} projection points for {total} solutions")
    labels: set[str] = set()
    for s in sets:
        if s.label in labels:
            raise ValueError(f"set label {s.label!r} is repeated")
        labels.add(s.label)
    points = iter(projection.coords)
    return [(s.label, [(sol.id, *next(points)) for sol in s.solutions]) for s in sets]


def _json_report(
    results: list[IndicatorResult],
    correlation: CorrelationStats | None,
    placed: list[tuple[str, list[tuple[str, float, float]]]],
    projection: Projection2D | None,
) -> str:
    doc: dict = {
        "sets": [
            {
                "label": r.set_label,
                "n": r.n,
                "o": r.o,
                "ms": r.ms,
                "mas": r.mas,
                "max_d": r.max_d,
                "L_pad": r.l_pad,
                "diagnostics": list(r.diagnostics),
            }
            for r in results
        ]
    }
    if correlation is None:
        doc["correlation"] = {"computable": False}
    else:
        doc["correlation"] = {
            "computable": correlation.pearson is not None or correlation.spearman is not None,
            "n": correlation.n,
            "pearson": correlation.pearson,
            "spearman": correlation.spearman,
        }
    # Each map's points are written apart, in the place of "points": [].
    # json.dumps escapes every quote inside a string, so that text is only
    # ever a key named points with an empty list.
    points = {label: _points_json(rows) for label, rows in placed}
    if placed:
        doc["projections"] = {
            label: {
                "stress": projection.stress,
                "eigenvalue_share": projection.eigenvalue_share,
                "points": [],
            }
            for label in points
        }
    pieces = json.dumps(doc, indent=2, allow_nan=False).split('"points": []')
    return "".join(chain.from_iterable(zip(pieces, points.values()))) + pieces[-1] + "\n"


def _points_json(rows: list[tuple[str, float, float]]) -> str:
    """The ``"points"`` member of a map as ``json.dumps(indent=2)`` writes it in a report.

    One f-string per point: string ids and finite float coordinates are
    written as the encoder writes them, without its pure-Python indenting;
    anything else goes through ``json.dumps``, which refuses NaN and infinity.
    """

    def value(v: object) -> str:
        finite = v.__class__ is float and math.isfinite(v)
        return float.__repr__(v) if finite else json.dumps(v, allow_nan=False)

    items = ",\n        ".join(
        f'{{\n          "id": {_ascii(i) if i.__class__ is str else value(i)},\n'
        f'          "x": {value(x)},\n          "y": {value(y)}\n        }}'
        for i, x, y in rows
    )
    return f'"points": [\n        {items}\n      ]' if rows else '"points": []'


def _csv_report(
    results: list[IndicatorResult], placed: list[tuple[str, list[tuple[str, float, float]]]]
) -> dict[str, str]:
    import csv

    summary = _stdio.StringIO()
    writer = csv.writer(summary, lineterminator="\n")
    writer.writerow(["label", "n", "o", "ms", "mas", "max_d", "L_pad"])
    for r in results:
        writer.writerow([r.set_label, r.n, r.o, repr(r.ms), repr(r.mas), repr(r.max_d), r.l_pad])

    points = _stdio.StringIO()
    writer = csv.writer(points, lineterminator="\n")
    writer.writerow(["id", "label", "x", "y"])
    for label, rows in placed:
        for i, x, y in rows:
            writer.writerow([i, label, repr(x), repr(y)])
    return {"summary": summary.getvalue(), "points": points.getvalue()}


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


_SVG_WIDTH = 640
_SVG_HEIGHT = 520


def emit_scatter_svg(
    sets: Sequence[SolutionSet], projection: Projection2D, results: list[IndicatorResult]
) -> str:
    """Standalone SVG scatter: one marker per solution, colored by set label.

    Solution ``i`` of ``sets``, in order, sits at point ``i`` of ``projection``.
    Each set gets its minimum enclosing circle and a legend entry; the caption
    carries the set's MAS/MS from its row in ``results``, if any. The MDS axes
    carry no semantic meaning and are left unlabeled.
    """
    placed = _set_points(sets, projection)
    if not projection.coords:
        raise ValueError("at least one projection point is required")

    xs = [x for x, _ in projection.coords]
    ys = [y for _, y in projection.coords]
    x_min, y_max = min(xs), max(ys)
    span = max(max(xs) - x_min, y_max - min(ys)) or 1.0
    margin = 50.0
    plot = min(_SVG_WIDTH, _SVG_HEIGHT) - 2 * margin
    scale = plot / span

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = margin + (x - x_min) * scale
        py = margin + (y_max - y) * scale  # flip: SVG y grows downward
        return px, py

    by_label: dict[str, str] = {}
    for label, _ in placed:
        by_label[label] = _PALETTE[len(by_label) % len(_PALETTE)]
    indicator_by_label = {r.set_label: r for r in results}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
    ]
    for label, rows in placed:
        color = by_label[label]
        px_points = [to_px(x, y) for _, x, y in rows]
        cx, cy, r = _min_enclosing_circle(px_points)
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r + 6:.2f}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" stroke-dasharray="6 3" opacity="0.8"/>'
        )
        for px, py in px_points:
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.2" fill="{color}" opacity="0.75"/>'
            )

    legend_y = 22.0
    for label, color in by_label.items():
        ind = indicator_by_label.get(label)
        caption = label
        if ind is not None:
            caption += f"  MAS={ind.mas:.3f}  MS={ind.ms:.3f}"
        parts.append(
            f'<circle cx="{_SVG_WIDTH - 230}" cy="{legend_y - 4:.1f}" r="5" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_SVG_WIDTH - 218}" y="{legend_y:.1f}" font-family="sans-serif" '
            f'font-size="12">{_xml_escape(caption)}</text>'
        )
        legend_y += 18.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Characters outside XML 1.0's Char production, which no escape can carry.
_NOT_XML_CHARS = dict.fromkeys(
    [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd"
)


def _xml_escape(text: str) -> str:
    """``text`` as XML character data; a character XML 1.0 forbids becomes U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text.translate(_NOT_XML_CHARS)


def _min_enclosing_circle(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Welzl's algorithm over the points in a seeded random order.

    In input order it can take cubic time, e.g. on points that spiral
    outwards; a random order makes the expected time linear.
    """
    import random

    pts = list(dict.fromkeys(points))
    if not pts:
        return 0.0, 0.0, 0.0
    random.Random(0).shuffle(pts)
    circle: tuple[float, float, float] | None = None
    for i, p in enumerate(pts):
        if circle is None or not _in_circle(circle, p):
            circle = (p[0], p[1], 0.0)
            for j, q in enumerate(pts[: i + 1]):
                if not _in_circle(circle, q):
                    circle = _circle_two(p, q)
                    for r in pts[: j + 1]:
                        if not _in_circle(circle, r):
                            circle = _circumcircle(p, q, r)
    assert circle is not None
    return circle


def _in_circle(circle: tuple[float, float, float], p: tuple[float, float]) -> bool:
    cx, cy, r = circle
    return math.hypot(p[0] - cx, p[1] - cy) <= r + 1e-9


def _circle_two(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float, float]:
    cx = (a[0] + b[0]) / 2
    cy = (a[1] + b[1]) / 2
    return cx, cy, math.hypot(a[0] - b[0], a[1] - b[1]) / 2


def _circumcircle(a, b, c) -> tuple[float, float, float]:
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12:
        # Collinear: fall back to the widest two-point circle.
        circles = [_circle_two(a, b), _circle_two(a, c), _circle_two(b, c)]
        return max(circles, key=lambda t: t[2])
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    return ux, uy, math.hypot(ax - ux, ay - uy)
