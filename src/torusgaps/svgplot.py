"""SVG rendering of planar instances: the n points on the unit square with
the undefeated edges drawn as chords, colored by length cluster.

Edges are drawn along the shortest torus displacement; an edge that wraps
around the square is emitted as two segments clipped to the unit square.
"""

from __future__ import annotations

import numpy as np

from .numerics import coerce_components, kronecker_points
from .tournament import SurvivorReport

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#98df8a",
]

_SIZE = 640  # width and height in px
_POINT_RADIUS = 0.006
_STROKE = 0.004


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _line(x1, y1, x2, y2, color) -> str:
    # SVG's y axis points down; flip so the square reads like a plot.
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(1 - y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(1 - y2)}" '
            f'stroke="{color}" stroke-width="{_STROKE}" />')


def render_survivors_svg(alphas, n: int, report: SurvivorReport, path: str) -> None:
    """Write an SVG of a 2-torus instance with its surviving edges."""
    comps, _ = coerce_components(alphas)
    if len(comps) != 2:
        raise ValueError("SVG rendering is defined for m = 2 only")
    P, _ = kronecker_points([float(c) for c in comps], False, n)

    def cluster_color(length: float) -> str:
        best = min(range(len(report.distinct_lengths)),
                   key=lambda i: abs(report.distinct_lengths[i] - length))
        return _PALETTE[best % len(_PALETTE)]

    lines = []
    for (j, k), length in zip(report.survivors, report.survivor_lengths):
        pj, pk = P[j - 1], P[k - 1]
        d = pk - pj
        d -= np.round(d)  # shortest torus displacement, components in [-1/2, 1/2]
        color = cluster_color(length)
        if np.allclose(pj + d, pk):
            lines.append(_line(pj[0], pj[1], pk[0], pk[1], color))
        else:
            end = pj + d
            start = pk - d
            lines.append(_line(pj[0], pj[1], end[0], end[1], color))
            lines.append(_line(start[0], start[1], pk[0], pk[1], color))

    circles = [
        f'<circle cx="{_fmt(x)}" cy="{_fmt(1 - y)}" r="{_POINT_RADIUS}" fill="#111111" />'
        for x, y in P
    ]
    body = "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        'viewBox="-0.04 -0.04 1.08 1.08">',
        '<defs><clipPath id="unitsq"><rect x="0" y="0" width="1" height="1" /></clipPath></defs>',
        '<rect x="0" y="0" width="1" height="1" fill="#ffffff" stroke="#333333" '
        'stroke-width="0.003" />',
        '<g clip-path="url(#unitsq)">',
        *lines,
        "</g>",
        *circles,
        "</svg>",
    ])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body + "\n")
