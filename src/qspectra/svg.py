"""Minimal dependency-free SVG line charts.

Good enough for eyeballing spectra: stacked panels, linear axes, a few
ticks, one polyline per series.  Not a plotting library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._numtext import format_table

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_WIDTH = 760  # px, every chart


@dataclass
class Series:
    x: Sequence[float]
    y: Sequence[float]
    label: Optional[str] = None


@dataclass
class Panel:
    series: list[Series] = field(default_factory=list)
    xlabel: str = ""
    ylabel: str = ""
    title: str = ""


def _limits(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if len(finite) == 0:
        return (0.0, 1.0)
    lo, hi = float(np.min(finite)), float(np.max(finite))
    if lo == hi:
        pad = abs(lo) * 0.05 or 0.5
        return (lo - pad, hi + pad)
    pad = 0.04 * (hi - lo)
    return (lo - pad, hi + pad)


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _panel_svg(panel: Panel, y_offset: int, height: int) -> list[str]:
    left, right, top, bottom = 70, 20, 28, 40
    plot_w = _WIDTH - left - right
    plot_h = height - top - bottom
    xs = np.concatenate([np.asarray(s.x, float) for s in panel.series])
    ys = np.concatenate([np.asarray(s.y, float) for s in panel.series])
    x_lo, x_hi = _limits(xs)
    y_lo, y_hi = _limits(ys)

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return y_offset + top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<rect x="{left}" y="{y_offset + top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    ]
    if panel.title:
        out.append(
            f'<text x="{left + plot_w / 2:.1f}" y="{y_offset + top - 10}" '
            f'text-anchor="middle" font-size="13">{panel.title}</text>'
        )
    for tick in np.linspace(x_lo, x_hi, 5):
        x = px(tick)
        out.append(
            f'<line x1="{x:.1f}" y1="{y_offset + top + plot_h}" x2="{x:.1f}" '
            f'y2="{y_offset + top + plot_h + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{y_offset + top + plot_h + 18}" '
            f'text-anchor="middle" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 5):
        y = py(tick)
        out.append(
            f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11">{_fmt(tick)}</text>'
        )
    if panel.xlabel:
        out.append(
            f'<text x="{left + plot_w / 2:.1f}" y="{y_offset + height - 6}" '
            f'text-anchor="middle" font-size="12">{panel.xlabel}</text>'
        )
    if panel.ylabel:
        cx, cy = 16, y_offset + top + plot_h / 2
        out.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{panel.ylabel}</text>'
        )
    for k, series in enumerate(panel.series):
        color = PALETTE[k % len(PALETTE)]
        x = np.asarray(series.x, float)
        y = np.asarray(series.y, float)
        good = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
        # the polyline breaks at non-finite samples: a point ends its run
        # with a newline where the next sample is not the next finite one
        run_end = np.diff(good, append=-1) != 1
        separators = np.column_stack((np.full(len(good), ord(",")),
                                      np.where(run_end, ord("\n"), ord(" "))))
        # px/py are elementwise, so each point has the bits of a scalar call
        xy = np.column_stack((px(x[good]), py(y[good])))
        runs = format_table(xy, "%.2f", separators).split("\n")
        for pts, n_points in zip(runs, np.diff(np.flatnonzero(run_end), prepend=-1)):
            if n_points < 2:
                continue
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                'stroke-width="1.3"/>'
            )
        if series.label:
            lx = left + plot_w - 8
            ly = y_offset + top + 16 + 14 * k
            out.append(
                f'<text x="{lx}" y="{ly}" text-anchor="end" font-size="11" '
                f'fill="{color}">{series.label}</text>'
            )
    return out


def render_chart(panels: Sequence[Panel], panel_height: int = 250) -> str:
    """Render stacked panels into one SVG document string."""
    total = panel_height * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{total}" viewBox="0 0 {_WIDTH} {total}">',
        f'<rect width="{_WIDTH}" height="{total}" fill="white"/>',
    ]
    for i, panel in enumerate(panels):
        parts.extend(_panel_svg(panel, i * panel_height, panel_height))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path, panels: Sequence[Panel], panel_height: int = 250) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_chart(panels, panel_height=panel_height))


def spectrum_panels(spectrum, title: str = "") -> list[Panel]:
    """The standard two-panel layout: transmission on top, phase below."""
    return [
        Panel(
            series=[Series(spectrum.freqs, spectrum.transmission)],
            xlabel="angular frequency (rad/s)",
            ylabel="transmission",
            title=title,
        ),
        Panel(
            series=[Series(spectrum.freqs, spectrum.phase)],
            xlabel="angular frequency (rad/s)",
            ylabel="phase (rad)",
        ),
    ]


__all__ = ["PALETTE", "Panel", "Series", "render_chart", "spectrum_panels", "write_chart"]
