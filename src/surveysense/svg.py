"""Native SVG rendering for the sensitivity contour and margin sweeps.

Hand-built paths and text, no plotting runtime. Every ``<text>`` element
goes through ``_text``, which escapes what it writes, names in axis and
benchmark labels included, so the file stays well-formed XML. Contour
level curves are drawn from their closed form (each bias level traces
R2 = d / (1 + d) with d proportional to 1 / rho^2), so lines are exact
rather than traced from the grid; the sweep plot is a polyline with its
standard-error band and the baseline anchored.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only; the commands that render import these layers
    from .partial import PartialSweep
    from .summary import ContourGrid

__all__ = ["render_contour", "render_sweep"]


class _Frame:
    """Affine map from data coordinates into the SVG pixel frame."""

    def __init__(self, x_range, y_range, *, width=640, height=480,
                 left=62, right=18, top=42, bottom=48):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.width = width
        self.height = height
        self.left = left
        self.top = top
        self.plot_w = width - left - right
        self.plot_h = height - top - bottom

    def x(self, v: float) -> float:
        return self.left + (v - self.x0) / (self.x1 - self.x0) * self.plot_w

    def y(self, v: float) -> float:
        return self.top + (self.y1 - v) / (self.y1 - self.y0) * self.plot_h


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out in ("-0", "-0.0") else out


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / target
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    vals = []
    v = first
    while v <= hi + 1e-9:
        vals.append(round(v, 10))
        v += step
    return vals


def _axes(frame: _Frame, x_label: str, y_label: str, title: str) -> list[str]:
    parts = []
    x_px0, x_px1 = frame.x(frame.x0), frame.x(frame.x1)
    y_px0, y_px1 = frame.y(frame.y0), frame.y(frame.y1)
    parts.append(
        f'<rect x="{x_px0:.1f}" y="{y_px1:.1f}" width="{frame.plot_w:.1f}" '
        f'height="{frame.plot_h:.1f}" fill="white" stroke="#444" stroke-width="1"/>'
    )
    for v in _ticks(frame.x0, frame.x1):
        px = frame.x(v)
        parts.append(
            f'<line x1="{px:.1f}" y1="{y_px0:.1f}" x2="{px:.1f}" '
            f'y2="{y_px0 + 4:.1f}" stroke="#444"/>'
        )
        parts.append(_text(f'x="{px:.1f}" y="{y_px0 + 17:.1f}"',
                           'font-size="11" text-anchor="middle"', _fmt(v)))
    for v in _ticks(frame.y0, frame.y1):
        py = frame.y(v)
        parts.append(
            f'<line x1="{x_px0 - 4:.1f}" y1="{py:.1f}" x2="{x_px0:.1f}" '
            f'y2="{py:.1f}" stroke="#444"/>'
        )
        parts.append(_text(f'x="{x_px0 - 7:.1f}" y="{py + 4:.1f}"',
                           'font-size="11" text-anchor="end"', _fmt(v)))
    mid_x = (x_px0 + x_px1) / 2
    parts.append(_text(f'x="{mid_x:.1f}" y="{frame.height - 12:.1f}"',
                       'font-size="13" text-anchor="middle"', x_label))
    mid_y = (y_px0 + y_px1) / 2
    parts.append(_text(f'x="16" y="{mid_y:.1f}"', 'font-size="13" text-anchor="middle" '
                       f'transform="rotate(-90 16 {mid_y:.1f})"', y_label))
    parts.append(_text(f'x="{mid_x:.1f}" y="24"', 'font-size="15" text-anchor="middle"', title))
    return parts


def _text(at: str, style: str, text: str) -> str:
    """A ``<text>`` element at ``at``, its x and y attributes, styled by
    ``style`` after the font, with ``&``, ``<`` and ``>`` in its text escaped."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text {at} font-family="Helvetica, Arial, sans-serif" {style}>{text}</text>'


def _polyline(points: list[tuple[float, float]], style: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" {style}/>'


def _svg(width: int, height: int, parts: list[str]) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )


def _level_values(grid: ContourGrid) -> list[float]:
    top = float(np.nanmax(np.abs(grid.bias)))
    if top <= 0:
        return []
    step = _nice_step(top, target=4)
    levels = []
    v = step
    while v <= top + 1e-12:
        levels.extend([v, -v])
        v += step
    return sorted(levels)


def _level_curve(level: float, scale_product: float, grid: ContourGrid):
    """Exact (rho, r2) polyline for one bias level within plot bounds."""
    sign = 1.0 if level > 0 else -1.0
    r2_max = float(grid.r2_axis[-1])
    # smallest |rho| that keeps the curve inside the plot
    d_at_max = r2_max / (1.0 - r2_max)
    rho_min = abs(level) / math.sqrt(scale_product * d_at_max)
    points = []
    for rho in np.linspace(max(rho_min, 1e-6), 1.0, 160):
        d = level**2 / (rho**2 * scale_product)
        r2 = d / (1.0 + d)
        if r2 <= r2_max + 1e-12:
            points.append((sign * rho, min(r2, r2_max)))
    return points


def render_contour(grid: ContourGrid) -> str:
    """Contour plot of bias over (rho, R2) with the tipping region shaded.

    The shaded band is where the adjusted estimate crosses the decision
    threshold; benchmark points from the grid are drawn with labels.
    """
    frame = _Frame((-1.0, 1.0), (0.0, float(grid.r2_axis[-1])))
    parts = _axes(frame, "error correlation with outcome", "error share of weight variance",
                  "Bias sensitivity")

    gap = grid.scale.mu_hat - grid.b_star
    if gap != 0.0:
        side = 1.0 if gap > 0 else -1.0
        mask = np.sign(grid.rho_axis) == side
        rhos = grid.rho_axis[mask]
        bounds = grid.boundary[mask]
        inside = bounds <= frame.y1 + 1e-12
        if np.any(inside):
            poly = [(frame.x(r), frame.y(min(b, frame.y1)))
                    for r, b in zip(rhos[inside], bounds[inside])]
            top_edge = [(frame.x(rhos[inside][-1]), frame.y(frame.y1)),
                        (frame.x(rhos[inside][0]), frame.y(frame.y1))]
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in poly + top_edge)
            parts.append(
                f'<polygon points="{coords}" fill="#e8534a" fill-opacity="0.18" '
                'stroke="none"/>'
            )
            boundary_px = [(frame.x(r), frame.y(min(b, frame.y1)))
                           for r, b in zip(rhos[inside], bounds[inside])]
            parts.append(_polyline(boundary_px, 'stroke="#c0392b" stroke-width="2"'))

    scale_product = grid.scale.var_y * grid.scale.var_w
    if scale_product > 0:
        for level in _level_values(grid):
            pts = _level_curve(level, scale_product, grid)
            if len(pts) < 2:
                continue
            px = [(frame.x(r), frame.y(v)) for r, v in pts]
            parts.append(
                _polyline(px, 'stroke="#6a7f93" stroke-width="1" stroke-dasharray="4,3"')
            )
            lx, ly = px[len(px) // 3]
            parts.append(_text(f'x="{lx:.1f}" y="{ly - 3:.1f}"',
                               'font-size="10" fill="#44566b" text-anchor="middle"', _fmt(level)))

    parts.append(_polyline(
        [(frame.x(0.0), frame.y(frame.y0)), (frame.x(0.0), frame.y(frame.y1))],
        'stroke="#999" stroke-width="0.7"',
    ))

    for label, rho, r2 in grid.benchmark_points:
        if not (frame.x0 <= rho <= frame.x1 and frame.y0 <= r2 <= frame.y1):
            continue
        px, py = frame.x(rho), frame.y(r2)
        parts.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3.5" fill="#1d5fa8" '
            'stroke="white" stroke-width="1"/>'
        )
        parts.append(_text(f'x="{px + 6:.1f}" y="{py - 5:.1f}"',
                           'font-size="10" fill="#173f6e"', label))

    return _svg(frame.width, frame.height, parts)


def render_sweep(sweep: PartialSweep) -> str:
    """Estimate against the posited margin, SE band shaded, baseline marked.

    Infeasible grid points break the line rather than being bridged.
    """
    finite = [p for p in sweep.points if np.isfinite(p.estimate)]
    if not finite:
        raise ValueError("no feasible sweep points to draw")
    t_lo = min(p.t_v for p in sweep.points)
    t_hi = max(p.t_v for p in sweep.points)
    if t_hi <= t_lo:
        t_lo, t_hi = t_lo - 0.5, t_hi + 0.5
    lo = min(p.estimate - 1.1 * p.se for p in finite)
    hi = max(p.estimate + 1.1 * p.se for p in finite)
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    frame = _Frame((t_lo, t_hi), (lo - pad, hi + pad))
    parts = _axes(frame, f"posited margin of {sweep.label}", "adjusted estimate",
                  f"Estimate under posited margins of {sweep.label}")

    runs = [[]]
    for p in sweep.points:
        if np.isfinite(p.estimate):
            runs[-1].append(p)
        elif runs[-1]:
            runs.append([])
    for run in runs:
        if len(run) < 2:
            continue
        band_up = [(frame.x(p.t_v), frame.y(p.estimate + p.se)) for p in run]
        band_dn = [(frame.x(p.t_v), frame.y(p.estimate - p.se)) for p in reversed(run)]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in band_up + band_dn)
        parts.append(
            f'<polygon points="{coords}" fill="#1d5fa8" fill-opacity="0.12" stroke="none"/>'
        )
        line = [(frame.x(p.t_v), frame.y(p.estimate)) for p in run]
        parts.append(_polyline(line, 'stroke="#1d5fa8" stroke-width="2"'))

    for p in sweep.points:
        if not np.isfinite(p.estimate):
            px = frame.x(p.t_v)
            parts.append(
                f'<line x1="{px:.1f}" y1="{frame.y(frame.y1):.1f}" x2="{px:.1f}" '
                f'y2="{frame.y(frame.y0):.1f}" stroke="#c0392b" stroke-width="0.8" '
                'stroke-dasharray="2,3"/>'
            )

    bx, by = frame.x(sweep.baseline_t), frame.y(sweep.baseline_estimate)
    parts.append(
        f'<circle cx="{bx:.1f}" cy="{by:.1f}" r="4.5" fill="#e8534a" '
        'stroke="white" stroke-width="1.2"/>'
    )
    parts.append(_text(f'x="{bx + 7:.1f}" y="{by - 7:.1f}"', 'font-size="10" fill="#7c2320"',
                       "baseline"))
    return _svg(frame.width, frame.height, parts)
