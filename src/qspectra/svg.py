"""Minimal dependency-free SVG line charts.

Good enough for eyeballing spectra: stacked panels, linear axes, a few
ticks, one polyline per finite run of each series (non-finite samples
break the line).  Not a plotting library.

The document is built as UTF-8 bytes: the few axis elements as small
strings, each text by ``_text``, which XML-escapes it, each tick by
``_line``, and each series' ``%.2f`` points by one ``table_blocks`` call,
its ``\\n`` run ends replaced by the markup between two polylines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from ._numtext import table_blocks

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


def _coord(v) -> str:
    """A coordinate: a float to 0.1 px, an int as it is."""
    return f"{v:.1f}" if isinstance(v, float) else str(v)


def _text(x, y, anchor: str, size: int, body: str, attributes: str = "") -> str:
    """A text element at (x, y), its body escaped as XML character data;
    attributes, if any, start with a space."""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{_coord(x)}" y="{_coord(y)}" text-anchor="{anchor}" '
            f'font-size="{size}"{attributes}>{body}</text>')


def _line(x1, y1, x2, y2) -> str:
    """A tick mark from (x1, y1) to (x2, y2)."""
    return (f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" '
            f'y2="{_coord(y2)}" stroke="#333"/>')


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _panel_svg(panel: Panel, y_offset: int, height: int) -> Iterator[bytes]:
    left, right, top, bottom = 70, 20, 28, 40
    plot_w = _WIDTH - left - right
    plot_h = height - top - bottom
    # a panel without series draws its frame on the (0, 1) default limits
    xs = np.concatenate([np.empty(0)] + [np.asarray(s.x, float) for s in panel.series])
    ys = np.concatenate([np.empty(0)] + [np.asarray(s.y, float) for s in panel.series])
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
        out.append(_text(left + plot_w / 2, y_offset + top - 10, "middle", 13, panel.title))
    for tick in np.linspace(x_lo, x_hi, 5):
        x = px(tick)
        out.append(_line(x, y_offset + top + plot_h, x, y_offset + top + plot_h + 5))
        out.append(_text(x, y_offset + top + plot_h + 18, "middle", 11, _fmt(tick)))
    for tick in np.linspace(y_lo, y_hi, 5):
        y = py(tick)
        out.append(_line(left - 5, y, left, y))
        out.append(_text(left - 8, y + 4, "end", 11, _fmt(tick)))
    if panel.xlabel:
        out.append(_text(left + plot_w / 2, y_offset + height - 6, "middle", 12, panel.xlabel))
    if panel.ylabel:
        cx, cy = 16, y_offset + top + plot_h / 2
        out.append(_text(cx, cy, "middle", 12, panel.ylabel,
                         f' transform="rotate(-90 {cx} {_coord(cy)})"'))
    yield _lines(out)
    for k, series in enumerate(panel.series):
        color = PALETTE[k % len(PALETTE)]
        x = np.asarray(series.x, float)
        y = np.asarray(series.y, float)
        finite = np.concatenate(([False], np.isfinite(x) & np.isfinite(y), [False]))
        # one polyline per finite run: a sample is drawn when it and a
        # neighbour are finite, so a run of one point draws nothing
        drawn = np.flatnonzero(finite[1:-1] & (finite[:-2] | finite[2:]))
        if len(drawn):
            # "x,y" points separated by spaces; a run's last point ends in "\n",
            # the markup between two polylines, and the series' last in '"'
            separators = np.full((len(drawn), 2), (ord(","), ord(" ")), np.uint8)
            separators[:-1, 1][np.diff(drawn) != 1] = ord("\n")
            separators[-1, 1] = ord('"')
            attributes = f' fill="none" stroke="{color}" stroke-width="1.3"/>\n'.encode()
            yield b'<polyline points="'
            # px/py are elementwise, so each point has the bits of a scalar call
            for block in table_blocks((px(x[drawn]), py(y[drawn])), "%.2f", separators):
                yield block.replace(b"\n", b'"' + attributes + b'<polyline points="')
            yield attributes
        if series.label:
            lx = left + plot_w - 8
            ly = y_offset + top + 16 + 14 * k
            yield _lines([_text(lx, ly, "end", 11, series.label, f' fill="{color}"')])


def _lines(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def write_chart(path, panels: Sequence[Panel], panel_height: int = 250) -> None:
    """Write the SVG document of the panels as UTF-8 bytes, a few elements
    or a block of polyline points at a time."""
    for panel in panels:
        for series in panel.series:
            if len(series.x) != len(series.y):
                raise ValueError(f"a series has {len(series.x)} x values "
                                 f"and {len(series.y)} y values")
    total = panel_height * len(panels)
    with open(path, "wb") as handle:
        handle.write(_lines([
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{total}" viewBox="0 0 {_WIDTH} {total}">',
            f'<rect width="{_WIDTH}" height="{total}" fill="white"/>',
        ]))
        for i, panel in enumerate(panels):
            handle.writelines(_panel_svg(panel, i * panel_height, panel_height))
        handle.write(b"</svg>\n")


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


__all__ = ["PALETTE", "Panel", "Series", "spectrum_panels", "write_chart"]
