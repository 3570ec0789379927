"""Hand-rolled SVG figures for sweep summaries, one file per kernel.

Errors are drawn on a log-log canvas (lengthscale on x, relative error on y)
with 95% whiskers; the per-lengthscale sample count rides on a secondary
linear axis.  Output is a single standalone XML string per kernel with no
scripts or external assets, so files render anywhere and diff cleanly.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Sequence
from xml.sax.saxutils import escape

from .errors import UsageError

__all__ = ["emit_svg"]

_SERIES = (
    ("mean_sample", "ci_sample", "sample", "#1f77b4", "7,4"),
    ("mean_taper", "ci_taper", "taper", "#d62728", None),
    ("mean_thresh", "ci_thresh", "threshold", "#7a52a3", None),
)
_N_COLOR = "#2ca02c"


# Canvas geometry in pixels, and the axis labels.
_WIDTH, _HEIGHT = 720, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 70, 44, 52
_X_LABEL, _Y_LABEL, _N_LABEL = "lengthscale", "relative error", "N"


def _fmt_px(v: float) -> str:
    return f"{v:.2f}"


def _decade_label(exp: int) -> str:
    return f"1e{exp}"


class _Canvas:
    def __init__(self) -> None:
        self.parts = []

    def add(self, element: str) -> None:
        self.parts.append(element)

    def line(self, x1, y1, x2, y2, color, width=1.0, dash: Optional[str] = None) -> None:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<line x1="{_fmt_px(x1)}" y1="{_fmt_px(y1)}" x2="{_fmt_px(x2)}" '
            f'y2="{_fmt_px(y2)}" stroke="{color}" stroke-width="{width}"{d} />'
        )

    def polyline(self, pts, color, width=1.6, dash: Optional[str] = None) -> None:
        if len(pts) < 2:
            return
        coords = " ".join(f"{_fmt_px(x)},{_fmt_px(y)}" for x, y in pts)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d} />'
        )

    def circle(self, x, y, color, r=3.0) -> None:
        self.add(f'<circle cx="{_fmt_px(x)}" cy="{_fmt_px(y)}" r="{r}" fill="{color}" />')

    def text(self, x, y, s, size=12, anchor="middle", color="#333333", rotate=None) -> None:
        tr = f' transform="rotate({rotate} {_fmt_px(x)} {_fmt_px(y)})"' if rotate else ""
        self.add(
            f'<text x="{_fmt_px(x)}" y="{_fmt_px(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{color}"{tr}>'
            f"{escape(s)}</text>"
        )

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white" />\n'
        )
        return head + "\n".join(self.parts) + "\n</svg>\n"


def _log_ticks(lo: float, hi: float):
    """Decade positions (as log10 values) covering [lo, hi]."""
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    return [k for k in range(first, last + 1)]


def emit_svg(summaries: Sequence, out_dir) -> list:
    """Write one SVG per kernel found in the summaries; returns the paths."""
    if not summaries:
        raise UsageError("nothing to plot: empty summary list")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kernels = []
    for row in summaries:
        if row.kernel not in kernels:
            kernels.append(row.kernel)
    written = []
    for kernel in kernels:
        rows = sorted((r for r in summaries if r.kernel == kernel), key=lambda r: r.lam)
        path = out / f"{kernel}.svg"
        path.write_text(_render_kernel(kernel, rows))
        written.append(str(path))
    return written


def _render_kernel(kernel: str, rows) -> str:
    x0, x1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    y0, y1 = _MARGIN_TOP, _HEIGHT - _MARGIN_BOTTOM

    xs = [math.log10(r.lam) for r in rows]
    xlo, xhi = min(xs), max(xs)
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 0.5, xhi + 0.5

    ys = []
    for r in rows:
        for mean_f, ci_f, *_ in _SERIES:
            mean = getattr(r, mean_f)
            ci = getattr(r, ci_f)
            if mean > 0:
                ys.append(mean)
            if ci is not None and mean + ci > 0:
                ys.append(mean + ci)
            if ci is not None and mean - ci > 0:
                ys.append(mean - ci)
    if not ys:
        raise UsageError(f"kernel {kernel!r} has no positive error values to plot")
    floor = min(ys) / 1.5
    ylo, yhi = math.log10(floor), math.log10(max(ys) * 1.5)
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5

    n_max = max(r.N for r in rows)
    n_hi = max(1.0, 1.2 * n_max)

    def px(lx: float) -> float:
        return x0 + (lx - xlo) / (xhi - xlo) * (x1 - x0)

    def py(val: float) -> float:
        lv = math.log10(max(val, floor))
        return y1 - (lv - ylo) / (yhi - ylo) * (y1 - y0)

    def pn(n: float) -> float:
        return y1 - n / n_hi * (y1 - y0)

    c = _Canvas()
    c.add(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
          'fill="none" stroke="#999999" />')
    c.text((x0 + x1) / 2, 20, f"{kernel}: relative spectral error vs lengthscale", size=14)

    for k in _log_ticks(xlo, xhi):
        gx = px(float(k))
        c.line(gx, y0, gx, y1, "#dddddd", width=0.6)
        c.line(gx, y1, gx, y1 + 4, "#666666")
        c.text(gx, y1 + 18, _decade_label(k))
    c.text((x0 + x1) / 2, _HEIGHT - 14, _X_LABEL)

    for k in _log_ticks(ylo, yhi):
        gy = py(10.0**k)
        c.line(x0, gy, x1, gy, "#dddddd", width=0.6)
        c.line(x0 - 4, gy, x0, gy, "#666666")
        c.text(x0 - 8, gy + 4, _decade_label(k), anchor="end")
    c.text(18, (y0 + y1) / 2, _Y_LABEL, rotate=-90)

    for frac in (0.0, 0.5, 1.0):
        n_val = frac * n_hi
        gy = pn(n_val)
        c.line(x1, gy, x1 + 4, gy, _N_COLOR)
        c.text(x1 + 8, gy + 4, f"{n_val:.0f}", anchor="start", color=_N_COLOR)
    c.text(_WIDTH - 16, (y0 + y1) / 2, _N_LABEL, color=_N_COLOR, rotate=90)

    for mean_f, ci_f, label, color, dash in _SERIES:
        pts = [(px(lx), py(getattr(r, mean_f))) for lx, r in zip(xs, rows)]
        c.polyline(pts, color, dash=dash)
        for (gx, gy), r in zip(pts, rows):
            ci = getattr(r, ci_f)
            if ci is not None and ci > 0:
                hi = py(getattr(r, mean_f) + ci)
                lo = py(max(getattr(r, mean_f) - ci, floor))
                c.line(gx, lo, gx, hi, color, width=1.0)
                c.line(gx - 3, hi, gx + 3, hi, color, width=1.0)
                c.line(gx - 3, lo, gx + 3, lo, color, width=1.0)
            c.circle(gx, gy, color)

    n_pts = [(px(lx), pn(r.N)) for lx, r in zip(xs, rows)]
    c.polyline(n_pts, _N_COLOR, dash="2,4")
    if len(n_pts) == 1:
        c.circle(n_pts[0][0], n_pts[0][1], _N_COLOR, r=2.5)

    legend_x = x0 + 10
    legend_y = y0 + 16
    entries = [(label, color, dash) for _, _, label, color, dash in _SERIES]
    entries.append(("N (right axis)", _N_COLOR, "2,4"))
    for i, (label, color, dash) in enumerate(entries):
        ly = legend_y + 16 * i
        c.line(legend_x, ly - 4, legend_x + 26, ly - 4, color, width=1.6, dash=dash)
        c.text(legend_x + 32, ly, label, anchor="start", size=11)

    return c.render()
