"""Deterministic SVG rendering: anomaly heatmaps and skill-curve charts.

Everything is built from integers and fixed-format decimals, so the same
field always renders to the same bytes.
"""

from __future__ import annotations

import numpy as np

from .grid import AnomalyField

# Diverging ramp over anomaly percent, clipped to +-150: dry browns
# through white at zero into wet blues. Stops at the category thresholds.
_RAMP = (
    (-150.0, (84, 48, 5)),
    (-100.0, (140, 81, 10)),
    (-50.0, (216, 179, 101)),
    (-20.0, (246, 232, 195)),
    (0.0, (245, 245, 245)),
    (20.0, (199, 234, 229)),
    (50.0, (90, 180, 172)),
    (100.0, (1, 102, 94)),
    (150.0, (0, 60, 48)),
)

_THRESHOLDS = (-100, -50, -20, 0, 20, 50, 100)

#: heatmap pixels per grid cell; line-chart width and height in pixels
_CELL = 12
_CHART_WIDTH, _CHART_HEIGHT = 480, 320


def anomaly_color(a: float) -> str:
    """Hex color for one anomaly percentage."""
    x = min(max(float(a), _RAMP[0][0]), _RAMP[-1][0])
    for (x0, c0), (x1, c1) in zip(_RAMP, _RAMP[1:]):
        if x <= x1:
            t = 0.0 if x1 == x0 else (x - x0) / (x1 - x0)
            rgb = tuple(int(round(a0 + t * (a1 - a0))) for a0, a1 in zip(c0, c1))
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#{:02x}{:02x}{:02x}".format(*_RAMP[-1][1])


def svg_heatmap(anom: AnomalyField) -> str:
    """Anomaly heatmap with a legend at the category thresholds."""
    nlat, nlon = anom.spec.nlat, anom.spec.nlon
    legend_w = 150
    width = nlon * _CELL + legend_w + 20
    height = max(nlat * _CELL, 20 * (len(_THRESHOLDS) + 1)) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(nlat):
        for j in range(nlon):
            color = anomaly_color(anom.values[i, j])
            parts.append(
                f'<rect x="{10 + j * _CELL}" y="{10 + i * _CELL}" '
                f'width="{_CELL}" height="{_CELL}" fill="{color}"/>'
            )
    # legend: swatch at each threshold value
    lx = nlon * _CELL + 20
    parts.append(
        f'<text x="{lx}" y="20" font-family="monospace" font-size="12">'
        "anomaly %</text>"
    )
    for row, thr in enumerate(_THRESHOLDS):
        y = 30 + row * 20
        parts.append(
            f'<rect x="{lx}" y="{y}" width="14" height="14" '
            f'fill="{anomaly_color(thr)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{lx + 20}" y="{y + 12}" font-family="monospace" '
            f'font-size="12">{thr:+d}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_line_chart(xs, ys, x_label: str, y_label: str) -> str:
    """Single-series line chart with min/max axis labels."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size == 0 or xs.size != ys.size:
        raise ValueError("need equal, nonzero numbers of x and y points")
    ml, mr, mt, mb = 60, 20, 20, 50
    pw, ph = _CHART_WIDTH - ml - mr, _CHART_HEIGHT - mt - mb
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def px(x):
        return ml + (x - x0) / xr * pw

    def py(y):
        return mt + ph - (y - y0) / yr * ph

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}">',
        f'<rect width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="black" stroke-width="1"/>',
        f'<polyline points="{pts}" fill="none" stroke="#01665e" stroke-width="2"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#01665e"/>')
    parts.append(
        f'<text x="{ml}" y="{_CHART_HEIGHT - 10}" font-family="monospace" font-size="12">'
        f"{x_label}: {x0:g} .. {x1:g}</text>"
    )
    parts.append(
        f'<text x="10" y="{mt + 12}" font-family="monospace" font-size="12">'
        f"{y_label}: {y0:.3f} .. {y1:.3f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
