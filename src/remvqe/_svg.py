"""Minimal static SVG line charts, dependency-free.

Output is deterministic for identical inputs: fixed layout, fixed float
formatting, no timestamps.
"""
from __future__ import annotations

import math
from typing import Sequence

from ._frozen import frozen

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62.0, 16.0, 30.0, 42.0
_WIDTH, _HEIGHT = 640.0, 400.0  # of every panel
_N_TICKS = 5  # tick marks aimed for on a linear axis


def escape(text: str) -> str:
    """`xml.sax.saxutils.escape` without its import chain (urllib, http, ssl)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@frozen
class Series:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    color: str
    markers: bool = False


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / (_N_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        ticks.append(0.0 if abs(t) < 1e-12 * abs(step) else t)
        t += step
    return ticks


def line_chart(
    series: Sequence[Series],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    logx: bool = False,
    band: tuple[float, float] | None = None,
    vline: float | None = None,
) -> str:
    """One chart panel as an SVG fragment (a positioned <g> element)."""
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    if band is not None:
        ys_all.extend(band)
    tx = (lambda v: math.log10(v)) if logx else (lambda v: v)
    x_lo, x_hi = min(map(tx, xs_all)), max(map(tx, xs_all))
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_pad = 0.04 * (x_hi - x_lo) or 0.5
    y_pad = 0.08 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    px0, px1 = _MARGIN_L, _WIDTH - _MARGIN_R
    py0, py1 = _HEIGHT - _MARGIN_B, _MARGIN_T

    def sx(v: float) -> float:
        return px0 + (tx(v) - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v: float) -> float:
        return py0 + (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    parts = [f'<rect x="0" y="0" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>']
    if band is not None:
        b_lo, b_hi = sorted(band)
        parts.append(
            f'<rect x="{_fmt(px0)}" y="{_fmt(sy(b_hi))}" width="{_fmt(px1 - px0)}" '
            f'height="{_fmt(abs(sy(b_lo) - sy(b_hi)))}" fill="#d9d9d9"/>'
        )
    if logx:
        lo_d, hi_d = math.ceil(x_lo), math.floor(x_hi)
        x_ticks = [10.0 ** d for d in range(lo_d, hi_d + 1)]
    else:
        x_ticks = _nice_ticks(x_lo, x_hi)
    y_ticks = _nice_ticks(y_lo, y_hi)
    axis = 'stroke="#333333" stroke-width="1"'
    parts.append(f'<line x1="{_fmt(px0)}" y1="{_fmt(py0)}" x2="{_fmt(px1)}" y2="{_fmt(py0)}" {axis}/>')
    parts.append(f'<line x1="{_fmt(px0)}" y1="{_fmt(py0)}" x2="{_fmt(px0)}" y2="{_fmt(py1)}" {axis}/>')
    for t in x_ticks:
        x = sx(t)
        if not px0 - 1 <= x <= px1 + 1:
            continue
        label = _tick_label(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(py0)}" x2="{_fmt(x)}" y2="{_fmt(py0 + 4)}" {axis}/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(py0 + 16)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{escape(label)}</text>'
        )
    for t in y_ticks:
        y = sy(t)
        if not py1 - 1 <= y <= py0 + 1:
            continue
        parts.append(f'<line x1="{_fmt(px0 - 4)}" y1="{_fmt(y)}" x2="{_fmt(px0)}" y2="{_fmt(y)}" {axis}/>')
        parts.append(
            f'<text x="{_fmt(px0 - 7)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{escape(_tick_label(t))}</text>'
        )
    if vline is not None:
        x = sx(vline)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(py0)}" x2="{_fmt(x)}" y2="{_fmt(py1)}" '
            'stroke="#888888" stroke-width="1" stroke-dasharray="5,4"/>'
        )
    for s in series:
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{s.color}" '
            'stroke-width="1.6"/>'
        )
        if s.markers:
            for x, y in zip(s.xs, s.ys):
                parts.append(
                    f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.6" '
                    f'fill="{s.color}"/>'
                )
    for i, s in enumerate(series):
        lx, ly = px1 - 170.0, py1 + 14.0 + 15.0 * i
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{s.color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="11">{escape(s.label)}</text>'
        )
    cy = (py0 + py1) / 2
    parts += [
        f'<text x="{_fmt((px0 + px1) / 2)}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" font-weight="bold">'
        f"{escape(title)}</text>",
        f'<text x="{_fmt((px0 + px1) / 2)}" y="{_fmt(_HEIGHT - 10)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{escape(xlabel)}</text>",
        f'<text x="16" y="{_fmt(cy)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_fmt(cy)})">{escape(ylabel)}</text>',
    ]
    return "".join(parts)


def document(panels: Sequence[str]) -> str:
    """Stack chart panels vertically into one standalone SVG document."""
    total = _HEIGHT * len(panels)
    body = "".join(
        f'<g transform="translate(0 {_fmt(i * _HEIGHT)})">{panel}</g>'
        for i, panel in enumerate(panels)
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(total)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(total)}">'
        f"{body}</svg>\n"
    )
