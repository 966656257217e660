"""Static SVG rendering of polygon triangulations.

Produces standalone SVG text: the regular n-gon inscribed in a circle,
vertex 0 at the top and labels increasing counterclockwise, boundary and
diagonals drawn solid, with optional shading of ears and internal
triangles.  Output is deterministic: fixed attribute order and
coordinates rounded to two decimals, so identical inputs yield identical
bytes.  Each vertex's sine and cosine are computed once, by `map` over
the angles, and its coordinates formatted once; the outline, the shaded
triangles, the diagonals and the vertex dots all reuse those strings.
The n vertex labels are one `%` template repeated n times and filled from
one flat tuple of (x, y, i) values, so the whole block is one format
call.  Nothing is kept between calls.
"""

from __future__ import annotations

from math import cos, isfinite, pi, sin

from polytri.triangulation import Triangulation

EAR_FILL = "#f4c26b"
INTERNAL_FILL = "#9fc5e8"
HIGHLIGHTS = ("none", "ears", "internal", "both")


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
    label_radius = radius * 1.13
    # Vertex i sits at angle 2*pi*i/n from the top, counterclockwise on
    # screen.  SVG's y axis points down, so that is x = cx - r sin(theta),
    # y = cy - r cos(theta), for the polygon's radius and the labels'.
    thetas = [2 * pi * i / n for i in range(n)]
    sines = list(map(sin, thetas))
    cosines = list(map(cos, thetas))
    xs = [f"{cx - radius * s:.2f}" for s in sines]
    ys = [f"{cy - radius * c:.2f}" for c in cosines]
    points = [f"{x},{y}" for x, y in zip(xs, ys)]
    width = f"{stroke_width:.2f}"

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
    for (a, b, c), fill in sorted(shaded):
        lines.append(f'  <polygon points="{points[a]} {points[b]} {points[c]}" fill="{fill}"/>')

    lines.append(
        f'  <polygon points="{" ".join(points)}" fill="none" stroke="black" '
        f'stroke-width="{width}"/>'
    )
    lines += [
        f'  <line x1="{xs[a]}" y1="{ys[a]}" x2="{xs[b]}" y2="{ys[b]}" '
        f'stroke="black" stroke-width="{width}"/>'
        for a, b in t.diagonals
    ]
    lines += [f'  <circle cx="{x}" cy="{y}" r="3" fill="black"/>' for x, y in zip(xs, ys)]
    label = (f'  <text x="%.2f" y="%.2f" font-size="{font_size}" font-family="sans-serif" '
             'text-anchor="middle" dominant-baseline="central">%d</text>')
    values = [0] * (3 * n)  # (x, y, i) of each label, flat
    values[0::3] = [cx - label_radius * s for s in sines]
    values[1::3] = [cy - label_radius * c for c in cosines]
    values[2::3] = range(n)
    lines.append("\n".join([label] * n) % tuple(values))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
