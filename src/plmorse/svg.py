"""SVG figures of two-dimensional canonical complexes.

One <line> element per first-layer neuron, oriented 1-cells as paths with
arrowhead polygons pointing where F increases, flat 2-cells shaded, all
clipped to a viewport around the arrangement's vertices.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .complexes import CanonicalComplex, reference_direction
from .geometry import Polyhedron

_STYLE = (
    "  <style>\n"
    "    .wall { stroke: #9aa0a6; stroke-width: 1; }\n"
    "    .edge { stroke: #202124; stroke-width: 1.5; fill: none; }\n"
    "    .flat-edge { stroke: #1a73e8; stroke-width: 2.5; fill: none; }\n"
    "    .arrow { fill: #202124; }\n"
    "    .flat-cell { fill: #aecbfa; fill-opacity: 0.6; stroke: none; }\n"
    "    .vertex { fill: #202124; }\n"
    "    .flat-vertex { fill: #1a73e8; }\n"
    "  </style>\n"
)


def viewport_box(cx: CanonicalComplex, pad: Fraction = Fraction(1)):
    """World-coordinate box (xmin, xmax, ymin, ymax) around all vertices."""
    points = [cx.skeleton[c.label].points[0][0] for c in cx.cells_of_dim(0)]
    if not points:
        return (-pad, pad, -pad, pad)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)


def _clipped_vertices(box, eqs, ges=()) -> list:
    """Vertices of {eqs = 0, ges >= 0} cut by the box."""
    xmin, xmax, ymin, ymax = box
    walls = (((1, 0), -xmin), ((-1, 0), xmax), ((0, 1), -ymin), ((0, -1), ymax))
    return Polyhedron(2, eqs, [*ges, *walls]).vertices


class _Canvas:
    def __init__(self, box, width: int):
        xmin, xmax, ymin, ymax = box
        self.box = box
        self.scale = width / float(xmax - xmin)
        self.width = width
        self.height = float(ymax - ymin) * self.scale

    def to_px(self, p) -> tuple[float, float]:
        xmin, _, _, ymax = self.box
        return (
            float(p[0] - xmin) * self.scale,
            float(ymax - p[1]) * self.scale,
        )


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _polygon_points(cell, box, canvas: _Canvas) -> str | None:
    verts = _clipped_vertices(box, cell.eqs, cell.stricts)
    if len(verts) < 3:
        return None
    px = [canvas.to_px(v) for v in verts]
    cx0 = sum(p[0] for p in px) / len(px)
    cy0 = sum(p[1] for p in px) / len(px)
    px.sort(key=lambda p: math.atan2(p[1] - cy0, p[0] - cx0))
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in px)


def _arrowhead(mid, direction, size: float = 6.0) -> str:
    dx, dy = direction
    norm = math.hypot(dx, dy)
    if norm == 0:
        return ""
    dx, dy = dx / norm, dy / norm
    tip = (mid[0] + size * dx, mid[1] + size * dy)
    left = (mid[0] - size * 0.6 * dx - size * 0.5 * dy, mid[1] - size * 0.6 * dy + size * 0.5 * dx)
    right = (mid[0] - size * 0.6 * dx + size * 0.5 * dy, mid[1] - size * 0.6 * dy - size * 0.5 * dx)
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (tip, left, right))
    return f'  <polygon class="arrow" points="{pts}" />\n'


def render_svg(cx: CanonicalComplex, width: int = 480) -> str:
    """SVG 1.1 document for the complex of a two-input network."""
    if cx.network.n0 != 2:
        raise ValueError("SVG export needs a two-input network")
    box = viewport_box(cx)
    canvas = _Canvas(box, width)
    orientations = cx.oriented_one_skeleton
    flats = set(cx.flat_labels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{canvas.width}" height="{_fmt(canvas.height)}" '
        f'viewBox="0 0 {canvas.width} {_fmt(canvas.height)}">\n',
        _STYLE,
    ]

    for cell in cx.cells_of_dim(2):
        if not cell.flat:
            continue
        pts = _polygon_points(cell, box, canvas)
        if pts:
            parts.append(f'  <polygon class="flat-cell" points="{pts}" />\n')

    layer = cx.network.layers[0]
    for row, b in zip(layer.weights, layer.bias):
        seg = _clipped_vertices(box, [(row, b)])
        if len(seg) != 2:
            continue
        (x1, y1), (x2, y2) = (canvas.to_px(v) for v in seg)
        parts.append(
            f'  <line class="wall" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" />\n'
        )

    for cell in cx.cells_of_dim(1):
        seg = _clipped_vertices(box, cell.eqs, cell.stricts)
        if len(seg) != 2:
            continue
        (x1, y1), (x2, y2) = (canvas.to_px(v) for v in seg)
        css = "flat-edge" if cell.label in flats else "edge"
        parts.append(
            f'  <path class="{css}" d="M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}" />\n'
        )
        sense = orientations[cell.label]
        if sense == "flat":
            continue
        ref = reference_direction(cx, cell.label)
        sign = 1 if sense == "increasing" else -1
        direction = (sign * float(ref[0]), -sign * float(ref[1]))
        mid = ((x1 + x2) / 2, (y1 + y2) / 2)
        parts.append(_arrowhead(mid, direction))

    for cell in cx.cells_of_dim(0):
        x, y = canvas.to_px(cx.skeleton[cell.label].points[0][0])
        css = "flat-vertex" if cell.label in flats else "vertex"
        parts.append(f'  <circle class="{css}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" />\n')

    parts.append("</svg>\n")
    return "".join(parts)
