"""Minimal SVG heatmaps for sweep tables.

Hand-rolled so byte-identical output depends only on the input rows:
linear color scale between the table's min and max, a diverging
blue-white-red palette for signed measures and a white-to-blue ramp for
nonnegative ones, and an outline marking one highlighted cell (the
menu-independent point).
"""

from __future__ import annotations

from typing import Sequence

CELL = 34
MARGIN = 56


def _color(value: float, lo: float, hi: float, signed: bool) -> str:
    if signed:
        # An all-zero table maps every value to white (t = 0).
        scale = max(abs(lo), abs(hi)) or 1.0
        t = max(-1.0, min(1.0, value / scale))
        if t >= 0:
            other = round(255 * (1 - t))
            return f"rgb(255,{other},{other})"
        other = round(255 * (1 + t))
        return f"rgb({other},{other},255)"
    span = hi - lo if hi > lo else 1.0
    t = max(0.0, min(1.0, (value - lo) / span))
    other = round(255 * (1 - t))
    return f"rgb({other},{other},255)"


def heatmap_svg(
    points: Sequence[tuple[float, float]],
    values: Sequence[float],
    x_label: str,
    y_label: str,
    title: str,
    highlight: tuple[float, float] | None = None,
    signed: bool = False,
) -> str:
    """Render one measure over 2-d grid points as an SVG grid."""
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    lo, hi = min(values), max(values)
    width = MARGIN * 2 + CELL * len(xs)
    height = MARGIN * 2 + CELL * len(ys)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<title>{title}</title>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    for (x, y), value in zip(points, values):
        px = MARGIN + xi[x] * CELL
        py = height - MARGIN - (yi[y] + 1) * CELL
        parts.append(
            f'<rect x="{px}" y="{py}" width="{CELL}" height="{CELL}" '
            f'fill="{_color(value, lo, hi, signed)}">'
            f"<title>({x:.9g}, {y:.9g}): {value:.9g}</title></rect>"
        )
    if highlight is not None and highlight[0] in xi and highlight[1] in yi:
        px = MARGIN + xi[highlight[0]] * CELL
        py = height - MARGIN - (yi[highlight[1]] + 1) * CELL
        parts.append(
            f'<rect x="{px}" y="{py}" width="{CELL}" height="{CELL}" '
            'fill="none" stroke="blue" stroke-width="3"/>'
        )
    for value, i in xi.items():
        parts.append(
            f'<text x="{MARGIN + i * CELL + CELL / 2:.1f}" '
            f'y="{height - MARGIN + 16}" text-anchor="middle" '
            f'font-size="9">{value:.2g}</text>'
        )
    for value, i in yi.items():
        parts.append(
            f'<text x="{MARGIN - 8}" '
            f'y="{height - MARGIN - i * CELL - CELL / 2 + 3:.1f}" '
            f'text-anchor="end" font-size="9">{value:.2g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {height / 2:.1f})">'
        f"{y_label}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)
