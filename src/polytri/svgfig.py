"""Static SVG rendering of polygon triangulations.

Produces standalone SVG text: the regular n-gon inscribed in a circle,
vertex 0 at the top and labels increasing counterclockwise, boundary and
diagonals drawn solid, with optional shading of ears and internal
triangles.  Output is deterministic: fixed attribute order and
coordinates rounded to two decimals, so identical inputs yield identical
bytes.
"""

from __future__ import annotations

from math import cos, isfinite, pi, sin

from polytri.triangulation import Triangulation

EAR_FILL = "#f4c26b"
INTERNAL_FILL = "#9fc5e8"
HIGHLIGHTS = ("none", "ears", "internal", "both")


def vertex_positions(n: int, cx: float, cy: float, r: float) -> list[tuple[float, float]]:
    """Vertex i at angle 2*pi*i/n from the top, counterclockwise on screen.

    SVG's y axis points down, so counterclockwise-as-viewed means
    x = cx - r sin(theta), y = cy - r cos(theta).
    """
    out = []
    for i in range(n):
        theta = 2 * pi * i / n
        out.append((cx - r * sin(theta), cy - r * cos(theta)))
    return out


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _poly_points(pts: list[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)


def render_svg(
    t: Triangulation,
    highlight: str = "none",
    size: int = 420,
    stroke_width: float = 2.0,
    font_size: int = 14,
) -> str:
    """Standalone SVG text for a triangulation.

    highlight: 'none', 'ears', 'internal', or 'both'; shaded triangles are
    drawn beneath the edges.  Raises ValueError for an unknown highlight,
    size < 60, font_size < 1, or a stroke_width that is negative or not
    finite.
    """
    if highlight not in HIGHLIGHTS:
        raise ValueError(
            f"highlight must be one of {', '.join(HIGHLIGHTS)}, got {highlight!r}"
        )
    if size < 60:
        raise ValueError(f"size must be at least 60, got {size}")
    if font_size < 1:
        raise ValueError(f"font size must be at least 1, got {font_size}")
    if not (isfinite(stroke_width) and stroke_width >= 0):
        raise ValueError(f"stroke width must be finite and >= 0, got {stroke_width}")
    n = t.n
    cx = cy = size / 2.0
    radius = size * 0.40
    pts = vertex_positions(n, cx, cy, radius)
    label_pts = vertex_positions(n, cx, cy, radius * 1.13)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"  <title>{t}</title>",
        f'  <rect width="{size}" height="{size}" fill="white"/>',
    ]

    shaded: list[tuple[tuple[int, int, int], str]] = []
    if n >= 4 and highlight in ("ears", "both"):
        shaded += [(tri, EAR_FILL) for tri in t.ears()]
    if highlight in ("internal", "both"):
        shaded += [(tri, INTERNAL_FILL) for tri in t.internal_triangles()]
    for tri, fill in sorted(shaded):
        corner = [pts[v] for v in tri]
        lines.append(f'  <polygon points="{_poly_points(corner)}" fill="{fill}"/>')

    lines.append(
        f'  <polygon points="{_poly_points(pts)}" fill="none" stroke="black" '
        f'stroke-width="{_fmt(stroke_width)}"/>'
    )
    for a, b in t.diagonals:
        (x1, y1), (x2, y2) = pts[a], pts[b]
        lines.append(
            f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="black" stroke-width="{_fmt(stroke_width)}"/>'
        )
    for i, (x, y) in enumerate(pts):
        lines.append(f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="black"/>')
    for i, (x, y) in enumerate(label_pts):
        lines.append(
            f'  <text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{font_size}" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'dominant-baseline="central">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
