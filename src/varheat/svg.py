"""Minimal standalone SVG 1.1 line plots, written directly (no plot library).

Figures emitted by the CLI are static polyline overlays: solution profiles
against the exact benchmark, eigenfunctions against the grid reference.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["LineSeries", "write_line_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f"]

_W, _H = 680, 440
_ML, _MR, _MT, _MB = 64, 16, 36, 48


class LineSeries:
    """One polyline: x and y of equal length (else :class:`DomainError`)."""

    def __init__(self, x, y, label, dashed=False):
        self.x = [float(v) for v in x]
        self.y = [float(v) for v in y]
        if len(self.x) != len(self.y):
            raise DomainError(f"series {label!r} has {len(self.x)} x but {len(self.y)} y")
        self.label = label
        self.dashed = dashed


def _range(values):
    """(lo, hi) of ``values``; a zero-width range is widened to (lo, lo + 1),
    or by 1e-9 |lo| where a unit step would be lost to rounding."""
    lo, hi = min(values), max(values)
    return lo, (hi if hi > lo else lo + max(1.0, 1e-9 * abs(lo)))


def _ticks(lo, hi, n=5):
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * span:
        out.append(round(v, 12))
        v += step
    return out


def write_line_plot(path, series, title="", xlabel="", ylabel=""):
    """Write a standalone SVG overlaying the given line series.

    Raises :class:`DomainError` when there is no point to plot or a value
    is not finite.
    """
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    if not (xs and ys):
        raise DomainError("nothing to plot")
    if not all(map(math.isfinite, xs + ys)):
        raise DomainError("plot values must be finite")
    (xlo, xhi), (ylo, yhi) = _range(xs), _range(ys)
    pad = 0.05 * (yhi - ylo)
    ylo -= pad
    yhi += pad

    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">'
    )
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    # axes box
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for tx in _ticks(xlo, xhi):
        if tx < xlo or tx > xhi:
            continue
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{_H - _MB}" x2="{px(tx):.1f}" '
            f'y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tx):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:g}</text>'
        )
    for ty in _ticks(ylo, yhi):
        if ty < ylo or ty > yhi:
            continue
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py(ty):.1f}" x2="{_ML}" '
            f'y2="{py(ty):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py(ty) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>'
        )
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.x, s.y))
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 120}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 114}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{s.label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(parts) + "\n")
