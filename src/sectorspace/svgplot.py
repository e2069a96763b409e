"""Dependency-free SVG charts.

Emitters are pure functions from data to SVG text: fixed float precision,
stable element order, no timestamps, so a given input always produces the
same bytes. Enough plotting for trajectories, distance series, factor
loadings and density heatmaps; nothing more.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .reports import _write_atomically

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")
WIDTH = 640
HEIGHT = 420
MARGIN = 52


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot place non-finite coordinate")
    text = f"{x:.3f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 2.5, 5.0, 10.0)), key=lambda s: abs(s * mag - raw))
    step *= mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 else t)
        t += step
    return out


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """A span that ticks cannot step through (empty, or within rounding of its
    ends) widened to 1; any other span as it is."""
    if hi - lo <= 1e-9 * max(abs(lo), abs(hi)):
        return lo - 0.5, hi + 0.5
    return lo, hi


class _Frame:
    """Maps data coordinates into the plot rectangle."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        x_lo, x_hi = _widened(x_lo, x_hi)
        y_lo, y_hi = _widened(y_lo, y_hi)
        pad_x = 0.04 * (x_hi - x_lo)
        pad_y = 0.06 * (y_hi - y_lo)
        self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y

    def x(self, v: float) -> float:
        span = self.x_hi - self.x_lo
        return MARGIN + (v - self.x_lo) / span * (WIDTH - 2 * MARGIN)

    def y(self, v: float) -> float:
        span = self.y_hi - self.y_lo
        return HEIGHT - MARGIN - (v - self.y_lo) / span * (HEIGHT - 2 * MARGIN)


def _axes(frame: _Frame, title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333" stroke-width="1"/>'
    ]
    for t in _ticks(frame.x_lo, frame.x_hi):
        px = _fmt(frame.x(t))
        parts.append(f'<line x1="{px}" y1="{HEIGHT - MARGIN}" x2="{px}" '
                     f'y2="{HEIGHT - MARGIN + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px}" y="{HEIGHT - MARGIN + 16}" font-size="10" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(frame.y_lo, frame.y_hi):
        py = _fmt(frame.y(t))
        parts.append(f'<line x1="{MARGIN - 4}" y1="{py}" x2="{MARGIN}" '
                     f'y2="{py}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN - 7}" y="{py}" font-size="10" '
                     f'text-anchor="end" dominant-baseline="middle">{_fmt(t)}</text>')
    parts.append(f'<text x="{WIDTH // 2}" y="20" font-size="13" '
                 f'text-anchor="middle" font-weight="bold">{title}</text>')
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" font-size="11" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="14" y="{HEIGHT // 2}" font-size="11" text-anchor="middle" '
                 f'transform="rotate(-90 14 {HEIGHT // 2})">{y_label}</text>')
    return parts


def _document(parts: list[str]) -> str:
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
            f"{body}\n</svg>\n")


def line_chart(series: list[tuple[str, list[float], list[float]]], title: str = "",
               x_label: str = "", y_label: str = "",
               sigmas: dict[str, list[float]] | None = None) -> str:
    """Polyline chart; optional per-series error bars keyed by series label."""
    if not series or all(len(xs) == 0 for _, xs, _ in series):
        raise ValueError("nothing to plot")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if sigmas:
        for label, xs, ys in series:
            for y, s in zip(ys, sigmas.get(label, [])):
                ys_all.extend((y - s, y + s))
    frame = _Frame(min(xs_all), max(xs_all), min(ys_all), max(ys_all))
    parts = _axes(frame, title, x_label, y_label)
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        if sigmas and label in sigmas:
            for x, y, s in zip(xs, ys, sigmas[label]):
                px = _fmt(frame.x(x))
                parts.append(f'<line x1="{px}" y1="{_fmt(frame.y(y - s))}" x2="{px}" '
                             f'y2="{_fmt(frame.y(y + s))}" stroke="{color}" '
                             f'stroke-width="1" opacity="0.6"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" '
                         f'r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{WIDTH - MARGIN + 4}" y="{MARGIN + 14 * idx + 10}" '
                     f'font-size="10" fill="{color}">{label}</text>')
    return _document(parts)


def trajectory_chart(points: list[tuple[int, float, float]], title: str = "",
                     x_label: str = "PC1", y_label: str = "PC2") -> str:
    """Year-labelled path through a 2-D plane."""
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))
    parts = _axes(frame, title, x_label, y_label)
    path = " ".join(
        f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for _, x, y in points
    )
    parts.append(f'<polyline points="{path}" fill="none" stroke="{PALETTE[0]}" '
                 f'stroke-width="1.5"/>')
    for year, x, y in points:
        px, py = _fmt(frame.x(x)), _fmt(frame.y(y))
        parts.append(f'<circle cx="{px}" cy="{py}" r="3" fill="{PALETTE[0]}"/>')
        parts.append(f'<text x="{px}" y="{_fmt(frame.y(y) - 6)}" font-size="9" '
                     f'text-anchor="middle">{year}</text>')
    return _document(parts)


def scatter_chart(points: list[tuple[str, float, float]], title: str = "",
                  x_label: str = "PC1", y_label: str = "PC2") -> str:
    """Labelled point cloud, e.g. sector tags in the loading plane."""
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))
    parts = _axes(frame, title, x_label, y_label)
    for label, x, y in points:
        px, py = _fmt(frame.x(x)), _fmt(frame.y(y))
        parts.append(f'<circle cx="{px}" cy="{py}" r="3" fill="{PALETTE[0]}"/>')
        parts.append(f'<text x="{px}" y="{_fmt(frame.y(y) - 6)}" font-size="8" '
                     f'text-anchor="middle">{label}</text>')
    return _document(parts)


def heatmap_chart(counts: np.ndarray, x_edges: np.ndarray, y_edges: np.ndarray,
                  title: str = "", x_label: str = "PC1", y_label: str = "PC2") -> str:
    """Density grid; darker cells hold more investors."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-D grid")
    frame = _Frame(float(x_edges[0]), float(x_edges[-1]),
                   float(y_edges[0]), float(y_edges[-1]))
    parts = _axes(frame, title, x_label, y_label)
    peak = counts.max()
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            if counts[i, j] == 0:
                continue
            level = counts[i, j] / peak if peak > 0 else 0.0
            shade = int(round(245 - 205 * level))
            x0, x1 = frame.x(float(x_edges[i])), frame.x(float(x_edges[i + 1]))
            y0, y1 = frame.y(float(y_edges[j + 1])), frame.y(float(y_edges[j]))
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                f'height="{_fmt(y1 - y0)}" fill="rgb({shade},{shade},255)"/>'
            )
    return _document(parts)


def bar_chart(labels: list[str], values: list[float], title: str = "",
              y_label: str = "") -> str:
    """Vertical bars, one per label; negative values hang below zero."""
    if not labels or len(labels) != len(values):
        raise ValueError("labels and values must align")
    lo, hi = min(0.0, min(values)), max(0.0, max(values))
    frame = _Frame(-0.6, len(labels) - 0.4, lo, hi)
    parts = _axes(frame, title, "", y_label)
    zero = frame.y(0.0)
    for idx, (label, value) in enumerate(zip(labels, values)):
        top = frame.y(value)
        y0, y1 = min(top, zero), max(top, zero)
        x0 = frame.x(idx - 0.35)
        width = frame.x(idx + 0.35) - x0
        color = PALETTE[0] if value >= 0 else PALETTE[1]
        parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(width)}" '
                     f'height="{_fmt(y1 - y0)}" fill="{color}"/>')
        parts.append(
            f'<text x="{_fmt(frame.x(idx))}" y="{HEIGHT - MARGIN + 16}" font-size="8" '
            f'text-anchor="end" transform="rotate(-45 {_fmt(frame.x(idx))} '
            f'{HEIGHT - MARGIN + 16})">{label}</text>'
        )
    parts.append(f'<line x1="{MARGIN}" y1="{_fmt(zero)}" x2="{WIDTH - MARGIN}" '
                 f'y2="{_fmt(zero)}" stroke="#333" stroke-width="1"/>')
    return _document(parts)


def save_svg(path, content: str) -> Path:
    """Write an SVG document atomically, as the CSVs and manifests are written."""
    return _write_atomically(path, lambda handle: handle.write(content))
