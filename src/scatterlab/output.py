"""Deterministic artifact writers: versioned CSV tables, a structured
JSON summary, and dependency-free SVG plots.

SVG is hand-rolled on purpose: byte-identical output for identical
inputs, diff-able in review, no plotting dependency.  Floats are
formatted with %.12g in CSV and fixed decimals in SVG geometry, so
repeated runs of the same configuration produce identical files.  A line
plot maps each series to pixels in one numpy expression per axis, in the
scalar mapping's operation order, so every coordinate is bit for bit the
per-point value.  A heatmap places and colours all drawn cells of a panel
the same way, in one numpy pass, and formats them with one template.

A CSV table maps header names to columns, and may come as a stream of
such blocks; one printf template per block, a piece per column by its
dtype kind, writes every row: ``%d`` for integers, ``%.12g`` for floats
(NaN prints as ``nan``), ``%s`` for strings and objects.  A bool or
complex column raises ``TypeError``.  A column given as a ``str`` is text
that every row of its block carries: it goes into the block's template
once, not through ``%``.  ``csv_cells`` gives a column's text ahead of
time, for a value that repeats over many rows or blocks.  Rows are
formatted ``_CSV_BLOCK`` at a time, a block with one ``%`` (``_format_rows``,
which the SVG path data and heatmap cells share).  The JSON summary writes
non-finite floats as ``null``, so strict parsers accept it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

CSV_VERSION_LINE = "# scatterlab-csv v1"


# Rows per block: no whole column is held as Python objects at once, and
# a block's text, formatted with one %, stays near 200 kB.
_CSV_BLOCK = 4_096

# A CSV column's printf piece, by numpy dtype kind.
_CSV_PIECES = {"i": "%d", "u": "%d", "f": "%.12g", "U": "%s", "O": "%s"}


def write_csv(
    path, table: Mapping[str, Sequence | str] | Iterable[Mapping[str, Sequence | str]]
) -> None:
    """Write a versioned CSV table: the version line, the header (the keys
    of ``table``), then one line per row of its columns, arrays or lists.

    ``table`` is one block of rows, or an iterable of blocks written one
    after another, each with the header's keys: a caller can stream a
    table too large to hold at once.  A single mapping is the one-block
    case.  Each column's piece of a block's row template is chosen by the
    dtype kind of its ``np.asarray`` (``_CSV_PIECES``): ``%d`` integers,
    ``%.12g`` floats, ``%s`` strings and object arrays (such as
    ``NetworkSpec.labels()``'s regions, or ``csv_cells``' text).  A
    column given as a ``str`` is a constant: every row of its block
    carries that text, written as it is (a ``%`` in it too), and the
    block's other columns give its rows (none if it has no other).  Any
    other kind (bool, complex) raises ``TypeError``, and columns of
    unequal length or a block with other keys ``ValueError``: for the
    first block before the file is opened, for a later one when it is
    reached.  A list of Python ints beyond int64 may convert to float, as
    ``np.asarray`` decides.  Rows are converted with ``tolist`` and
    written ``_CSV_BLOCK`` at a time.
    """
    blocks = iter((table,) if isinstance(table, Mapping) else table)
    first = next(blocks, None)
    if first is None:
        raise ValueError("write_csv needs at least one block of rows")
    header = list(first)
    rows = _csv_rows(first)
    with open(path, "w") as f:
        f.write(f"{CSV_VERSION_LINE}\n{','.join(header)}\n")
        f.writelines(rows)
        for block in blocks:
            if list(block) != header:
                raise ValueError(f"write_csv block columns {list(block)} are not the header {header}")
            f.writelines(_csv_rows(block))


def _csv_rows(table: Mapping[str, Sequence | str]) -> Iterator[str]:
    """The text of ``table``'s rows, ``_CSV_BLOCK`` rows per string, its
    columns checked (``write_csv``) before the first one is made.  A
    ``str`` column is written into the row template, its ``%`` doubled."""
    pieces, columns = [], []
    for name, column in table.items():
        if isinstance(column, str):
            pieces.append(column.replace("%", "%%"))
        else:
            columns.append(np.asarray(column))
            pieces.append(_csv_piece(name, columns[-1]))
    template = ",".join(pieces) + "\n"
    lengths = sorted({len(column) for column in columns})
    if len(lengths) > 1:
        raise ValueError(f"write_csv columns have unequal lengths {lengths}")
    return (
        _format_rows(template, [column[start : start + _CSV_BLOCK].tolist() for column in columns])
        for start in range(0, lengths[0] if lengths else 0, _CSV_BLOCK)
    )


def _csv_piece(name: str, column: np.ndarray) -> str:
    if column.dtype.kind not in _CSV_PIECES:
        raise TypeError(f"write_csv cannot format column {name!r} of dtype {column.dtype}")
    return _CSV_PIECES[column.dtype.kind]


def csv_cells(column: Sequence) -> np.ndarray:
    """The text ``write_csv`` writes for each value of ``column``, as an
    object array: a column of these cells writes the same bytes, so a
    value repeated over many rows is formatted once.  The distinct values
    of an integer column are formatted once each, their text shared."""
    column = np.asarray(column)
    piece = _csv_piece("cells", column)
    index = None
    if column.dtype.kind in "iu":
        column, index = np.unique(column, return_inverse=True)
    cells = np.array([piece % value for value in column.tolist()], dtype=object)
    return cells if index is None else cells[index]


def _format_rows(piece: str, columns: Sequence[list], sep: str = "") -> str:
    """``sep.join(piece % row for row in zip(*columns))`` with one ``%``:
    the piece repeated once per row, applied to the rows' values laid out
    row-major (value j of each row from column j).  ``columns`` are
    equal-length lists, at least one."""
    k, m = len(columns), len(columns[0])
    flat = [None] * (k * m)
    for j, column in enumerate(columns):
        flat[j::k] = column
    return sep.join([piece] * m) % tuple(flat)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray,)):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    return obj


def write_summary(path, payload: dict) -> None:
    """Write ``payload`` as sorted, indented strict JSON: numpy scalars and
    arrays become plain numbers and lists, a complex number an
    ``{"re", "im"}`` object, and NaN or infinity ``null``."""
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


# ---------------------------------------------------------------------------
# SVG primitives


@dataclass(frozen=True)
class Series:
    """One curve or point set in a line plot."""

    x: np.ndarray
    y: np.ndarray
    label: str
    color: str
    markers: bool = False  # empty circles at the data points instead of a line

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(np.asarray(self.x, dtype=float)) & np.isfinite(
            np.asarray(self.y, dtype=float)
        )


# Colormap stops: positions in [0, 1] and their (r, g, b) rows.
_COLORMAP_X = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_COLORMAP_RGB = np.array(
    [(0, 0, 4), (87, 16, 110), (188, 55, 84), (249, 142, 9), (252, 255, 164)], dtype=float
)


def _colormap(v: np.ndarray) -> np.ndarray:
    """Integer (r, g, b) rows, shape ``v.shape + (3,)``, for intensities
    ``v`` clipped to [0, 1]: a + f (b - a) between the two stops around
    each value, rounded half to even as Python's ``round``."""
    v = np.clip(v, 0.0, 1.0)
    # the segment whose upper stop is the first one >= v; v = 0 takes the first
    hi = np.maximum(np.searchsorted(_COLORMAP_X, v), 1)
    x0, x1 = _COLORMAP_X[hi - 1], _COLORMAP_X[hi]
    f = ((v - x0) / (x1 - x0))[..., None]
    a, b = _COLORMAP_RGB[hi - 1], _COLORMAP_RGB[hi]
    return np.rint(a + f * (b - a)).astype(int)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else float(v))
        if v + step == v:  # a step below half an ulp of v never advances it
            break
        v += step
    return ticks


def _tick_label(v: float) -> str:
    return format(v, ".6g")


# Line plot size in pixels; heatmap width and intensity exponent.
_PLOT_SIZE = (640, 420)
_HEATMAP_WIDTH = 720
_HEATMAP_GAMMA = 0.35


class _Svg:
    def __init__(self, width: int, height: int):
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(self, x: float, y: float, s: str, size: int = 12, anchor: str = "middle") -> None:
        self.add(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}" fill="black">{_escape(s)}</text>'
        )

    def ylabel(self, y: float, s: str) -> None:
        """An axis label at height ``y``, rotated to read bottom to top."""
        self.add(
            f'<text x="14" y="{y:.2f}" font-size="12" font-family="sans-serif" '
            f'text-anchor="middle" transform="rotate(-90 14 {y:.2f})">{_escape(s)}</text>'
        )

    def line(self, x1, y1, x2, y2, color="black", width=1.0) -> None:
        self.add(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def write(self, path) -> None:
        """Write the parts in turn, each followed by a newline: no joined copy."""
        with open(path, "w") as f:
            for part in (*self.parts, "</svg>"):
                print(part, file=f)


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass
class _Frame:
    """Axes frame mapping data coordinates to pixels.

    ``px`` and ``py`` take a scalar or a whole numpy array: an array is
    mapped in the scalar's operation order, elementwise in IEEE double,
    so each pixel is bit for bit the scalar call's."""

    x0: float
    y0: float
    w: float
    h: float
    xlo: float
    xhi: float
    ylo: float
    yhi: float

    def px(self, x: float | np.ndarray) -> float | np.ndarray:
        return self.x0 + (x - self.xlo) / (self.xhi - self.xlo) * self.w

    def py(self, y: float | np.ndarray) -> float | np.ndarray:
        return self.y0 + self.h - (y - self.ylo) / (self.yhi - self.ylo) * self.h


def _draw_axes(svg: _Svg, fr: _Frame, xlabel: str, ylabel: str) -> None:
    svg.add(
        f'<rect x="{fr.x0:.2f}" y="{fr.y0:.2f}" width="{fr.w:.2f}" height="{fr.h:.2f}" '
        f'fill="none" stroke="black"/>'
    )
    for tx in _nice_ticks(fr.xlo, fr.xhi):
        px = fr.px(tx)
        svg.line(px, fr.y0 + fr.h, px, fr.y0 + fr.h + 4)
        svg.text(px, fr.y0 + fr.h + 16, _tick_label(tx), size=10)
    for ty in _nice_ticks(fr.ylo, fr.yhi):
        py = fr.py(ty)
        svg.line(fr.x0 - 4, py, fr.x0, py)
        svg.text(fr.x0 - 6, py + 3, _tick_label(ty), size=10, anchor="end")
    svg.text(fr.x0 + fr.w / 2, fr.y0 + fr.h + 32, xlabel, size=12)
    svg.ylabel(fr.y0 + fr.h / 2, ylabel)


def svg_line_plot(
    path,
    series: Sequence[Series],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Line/marker plot with axes, ticks, and a legend."""
    width, height = _PLOT_SIZE
    svg = _Svg(width, height)
    fr = _Frame(x0=64, y0=40, w=width - 88, h=height - 96, xlo=0, xhi=1, ylo=0, yhi=1)

    xs = np.concatenate([np.asarray(s.x, dtype=float)[s.finite_mask()] for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float)[s.finite_mask()] for s in series])
    if xs.size == 0:
        xs = ys = np.array([0.0, 1.0])
    fr.xlo, fr.xhi = float(xs.min()), float(xs.max())
    fr.ylo, fr.yhi = float(ys.min()), float(ys.max())
    if fr.xhi == fr.xlo:
        fr.xhi = fr.xlo + 1.0
    pad = 0.05 * (fr.yhi - fr.ylo) or 0.5
    fr.ylo, fr.yhi = fr.ylo - pad, fr.yhi + pad

    svg.text(width / 2, 20, title, size=14)
    _draw_axes(svg, fr, xlabel, ylabel)

    for s in series:
        mask = s.finite_mask()
        px = fr.px(np.asarray(s.x, dtype=float)[mask]).tolist()
        py = fr.py(np.asarray(s.y, dtype=float)[mask]).tolist()
        if not s.markers and len(px) > 1:
            d = "M " + _format_rows("%.2f,%.2f", [px, py], " L ")
            svg.add(f'<path d="{d}" fill="none" stroke="{s.color}" stroke-width="1.5"/>')
        if s.markers and px:
            circle = (
                '<circle cx="%.2f" cy="%.2f" r="3" fill="none" '
                f'stroke="{s.color.replace("%", "%%")}" stroke-width="1.2"/>'
            )
            svg.add(_format_rows(circle, [px, py], "\n"))

    ly = 40
    for s in series:
        lx = width - 20
        svg.line(lx - 26, ly - 4, lx - 12, ly - 4, color=s.color, width=2)
        svg.text(lx - 30, ly, s.label, size=10, anchor="end")
        ly += 14

    svg.write(path)


def svg_heatmap(
    path,
    panels: Sequence[tuple[str, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Small-multiple intensity maps (rows x columns per panel).

    Each panel is normalized to its own maximum and drawn with a power-law
    intensity scale (exponent ``_HEATMAP_GAMMA``) so weak outgoing packets
    stay visible.  Cells whose scaled intensity rounds to the background
    are skipped to keep files small.
    """
    if not panels:
        raise ValueError("svg_heatmap needs at least one panel")
    n_rows, n_cols = panels[0][1].shape
    panel_w = _HEATMAP_WIDTH - 110
    cell = max(min(panel_w / n_cols, 14.0), 0.8)
    panel_w = cell * n_cols
    panel_h = max(min(260.0, 9.0 * n_rows), 40.0)
    row_h = panel_h / n_rows
    gap = 34
    height = int(46 + len(panels) * (panel_h + gap))
    svg = _Svg(int(panel_w + 150), height)
    svg.text((panel_w + 150) / 2, 20, title, size=14)

    cell_rect = (
        f'<rect x="%.2f" y="%.2f" width="{cell:.2f}" height="{row_h:.2f}" '
        'fill="rgb(%d,%d,%d)"/>'
    )
    for idx, (label, data) in enumerate(panels):
        if data.shape != (n_rows, n_cols):
            raise ValueError("all heatmap panels must share one shape")
        x0, y0 = 70.0, 40.0 + idx * (panel_h + gap)
        top = float(data.max())
        svg.add(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{panel_w:.2f}" height="{panel_h:.2f}" '
            'fill="rgb(%d,%d,%d)" stroke="black"/>' % tuple(_colormap(0.0).tolist())
        )
        if top > 0:
            scaled = (data / top) ** _HEATMAP_GAMMA
            rows, cols = np.nonzero(scaled >= 1.0 / 255.0)
            if rows.size:
                xs, ys = (x0 + cols * cell).tolist(), (y0 + rows * row_h).tolist()
                rgb = _colormap(scaled[rows, cols]).T.tolist()
                svg.add(_format_rows(cell_rect, [xs, ys, *rgb], "\n"))
        svg.text(x0 + panel_w + 8, y0 + 12, label, size=11, anchor="start")
        svg.text(x0 - 8, y0 + 10, "0", size=9, anchor="end")
        svg.text(x0 - 8, y0 + panel_h, str(n_rows - 1), size=9, anchor="end")
    svg.text(70 + panel_w / 2, height - 8, xlabel, size=12)
    svg.ylabel(height / 2, ylabel)
    svg.write(path)
