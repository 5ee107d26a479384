"""Scatter plots of 2-D embeddings as standalone SVG documents."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .io import _atomic_write
from .linalg import validate_embeddings

_WIDTH = 640
_HEIGHT = 480
_MARGIN = 40
_COLORS = ("#4878cf", "#e8b516", "#d65f5f", "#6acc65", "#956cb4", "#8c613c")


def scatter_svg(series: list[tuple[str, np.ndarray]]) -> str:
    """Render named 2-D point sets into one SVG string.

    Series are drawn in order (source, target, transformed is the usual
    trio) with a fixed palette and a legend in the top-left corner.
    """
    if not series:
        raise InvalidInput("at least one point series is required")
    checked = []
    for name, pts in series:
        pts = validate_embeddings(pts, name or "series")
        if pts.shape[1] != 2:
            raise InvalidInput(f"scatter plots require d = 2, series {name!r} has d = {pts.shape[1]}")
        checked.append((name, pts))

    stacked = np.vstack([pts for _, pts in checked])
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)

    def sx(x: float) -> float:
        return _MARGIN + (x - lo[0]) / span[0] * (_WIDTH - 2 * _MARGIN)

    def sy(y: float) -> float:
        # SVG y grows downward
        return _HEIGHT - _MARGIN - (y - lo[1]) / span[1] * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#999" stroke-width="1"/>',
    ]
    for idx, (name, pts) in enumerate(checked):
        color = _COLORS[idx % len(_COLORS)]
        parts.append(f'<g fill="{color}" fill-opacity="0.55">')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5"/>')
        parts.append("</g>")
        ly = _MARGIN + 16 + 18 * idx
        parts.append(f'<circle cx="{_MARGIN + 12}" cy="{ly - 4}" r="4" fill="{color}"/>')
        parts.append(
            f'<text x="{_MARGIN + 24}" y="{ly}" font-family="sans-serif" font-size="13">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_scatter_svg(path, series: list[tuple[str, np.ndarray]]) -> None:
    _atomic_write(path, scatter_svg(series))
