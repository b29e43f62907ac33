"""SVG rendering of drawings and witness polygons.

Presentation layer only: coordinates become floats here and are never read
back into the exact pipeline.
"""
from __future__ import annotations

from typing import Optional

from .geometry import Point2, SimplePolygon
from .model import Instance
from .sketch import Drawing
from .triangulation import Triangulation
from .visibility import link_ball, VisibilityError


def _bounds(points: list[Point2]) -> tuple[float, float, float, float]:
    xs = [float(p.x) for p in points]
    ys = [float(p.y) for p in points]
    return min(xs), min(ys), max(xs), max(ys)


class _Canvas:
    def __init__(self, points: list[Point2], size: float = 640.0):
        x0, y0, x1, y1 = _bounds(points)
        span = max(x1 - x0, y1 - y0, 1e-9)
        pad = 0.06 * span
        self.x0, self.y0 = x0 - pad, y0 - pad
        self.scale = size / (span + 2 * pad)
        self.w = (x1 - x0 + 2 * pad) * self.scale
        self.h = (y1 - y0 + 2 * pad) * self.scale
        self.y1 = y1 + pad
        self.parts: list[str] = []

    def xy(self, p: Point2) -> tuple[float, float]:
        # flip y so mathematical ccw reads counterclockwise on screen
        return ((float(p.x) - self.x0) * self.scale,
                (self.y1 - float(p.y)) * self.scale)

    def poly(self, pts: list[Point2], style: str, closed: bool = True):
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(self.xy, pts))
        tag = "polygon" if closed else "polyline"
        self.parts.append(f'<{tag} points="{coords}" style="{style}"/>')

    def line(self, a: Point2, b: Point2, style: str):
        xa, ya = self.xy(a)
        xb, yb = self.xy(b)
        self.parts.append(f'<line x1="{xa:.3f}" y1="{ya:.3f}" '
                          f'x2="{xb:.3f}" y2="{yb:.3f}" style="{style}"/>')

    def dot(self, p: Point2, r: float, fill: str, label: Optional[str] = None):
        x, y = self.xy(p)
        self.parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r}" '
                          f'fill="{fill}"/>')
        if label is not None:
            self.parts.append(f'<text x="{x + 6:.3f}" y="{y - 6:.3f}" '
                              f'font-size="13" font-family="monospace">'
                              f'{label}</text>')

    def render(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.w:.0f}" height="{self.h:.0f}" '
                f'viewBox="0 0 {self.w:.3f} {self.h:.3f}">')
        return "\n".join([head, *self.parts, "</svg>"]) + "\n"


def drawing_svg(drawing: Drawing, inst: Instance, polygon: SimplePolygon,
                tri: Optional[Triangulation] = None) -> str:
    pts = list(polygon.points) + list(drawing.positions.values())
    cv = _Canvas(pts)
    cv.poly(polygon.points, "fill:#f7f5ee;stroke:#444;stroke-width:2")
    if tri is not None:
        for a, b in tri.diagonals:
            cv.line(polygon.points[a], polygon.points[b],
                    "stroke:#999;stroke-width:1.2;stroke-dasharray:6 4")
    pos = drawing.positions
    for u, v in inst.edges:
        cv.line(pos[u], pos[v], "stroke:#1a5fb4;stroke-width:1.6")
    on_c = set(inst.cycle)
    for v, p in sorted(pos.items()):
        cv.dot(p, 4.0, "#c01c28" if v in on_c else "#1a5fb4", str(v))
    return cv.render()


def witness_svg(polygon: SimplePolygon, inst: Instance, anchors: dict[int, int],
                kind: str, ball_depths: Optional[dict[int, int]] = None) -> str:
    """Witness polygon with the anchors' link balls shaded."""
    cv = _Canvas(list(polygon.points))
    cv.poly(polygon.points, "fill:#f7f5ee;stroke:#444;stroke-width:2")
    shades = ["#fce5cd", "#d9ead3", "#cfe2f3"]
    for s_idx, (cpos, pidx) in enumerate(sorted(anchors.items())):
        depth = (ball_depths or {}).get(cpos, 1)
        try:
            region = link_ball(polygon, polygon.points[pidx], depth)
            cv.poly(region.ring,
                    f"fill:{shades[s_idx % 3]};fill-opacity:0.6;stroke:none")
        except VisibilityError:
            pass
    for s_idx, (cpos, pidx) in enumerate(sorted(anchors.items())):
        cv.dot(polygon.points[pidx], 5.0, "#c01c28", f"c{cpos + 1}")
    for i, p in enumerate(polygon.points):
        cv.dot(p, 2.5, "#444")
    return cv.render()
