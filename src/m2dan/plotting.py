"""Self-contained SVG training curves: no renderer or plotting library.

Two panels: the three loss terms per epoch, and test AUC per domain per
epoch. All coordinates are formatted with a fixed precision so the output
is byte-identical for identical history input.
"""

from __future__ import annotations

import math

from .errors import MalformedCsv

PALETTE = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#ff7f0e", "#8c564b")
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

_W, _H = 980, 380
_PANEL_W, _PANEL_H = 450, 340


def _num(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


def _panel(x0: float, y0: float, title: str, series, ymin: float, ymax: float,
           epochs) -> list[str]:
    """series: list of (label, color, values); returns SVG fragments."""
    px, py = x0 + 58, y0 + 26
    pw, ph = _PANEL_W - 72, _PANEL_H - 64
    n = len(epochs)
    span = ymax - ymin if ymax > ymin else 1.0

    def sx(i: int) -> float:
        return px + pw * (i / max(1, n - 1))

    def sy(v: float) -> float:
        return py + ph * (1.0 - (v - ymin) / span)

    out = [
        f'<rect x="{_num(px)}" y="{_num(py)}" width="{_num(pw)}" height="{_num(ph)}" '
        'fill="none" stroke="#888888" stroke-width="1"/>',
        f'<text x="{_num(px + pw / 2)}" y="{_num(y0 + 16)}" text-anchor="middle" '
        f'font-size="14">{title.translate(_XML_ESCAPES)}</text>',
        f'<text x="{_num(px + pw / 2)}" y="{_num(py + ph + 30)}" text-anchor="middle" '
        'font-size="12">epoch</text>',
    ]
    for t in range(5):
        v = ymin + span * t / 4
        yy = sy(v)
        out.append(
            f'<line x1="{_num(px - 4)}" y1="{_num(yy)}" x2="{_num(px)}" y2="{_num(yy)}" '
            'stroke="#888888" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_num(px - 7)}" y="{_num(yy + 4)}" text-anchor="end" '
            f'font-size="11">{_tick_label(v)}</text>'
        )
    step = max(1, math.ceil(n / 8))
    ticks = list(range(0, n, step))
    if ticks[-1] != n - 1:
        ticks.append(n - 1)
    for i in ticks:
        xx = sx(i)
        out.append(
            f'<line x1="{_num(xx)}" y1="{_num(py + ph)}" x2="{_num(xx)}" '
            f'y2="{_num(py + ph + 4)}" stroke="#888888" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_num(xx)}" y="{_num(py + ph + 16)}" text-anchor="middle" '
            f'font-size="11">{epochs[i]}</text>'
        )
    for si, (label, color, values) in enumerate(series):
        points = " ".join(f"{_num(sx(i))},{_num(sy(v))}" for i, v in enumerate(values))
        out.append(
            f'<polyline class="curve" points="{points}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        ly = py + 14 + 15 * si
        out.append(
            f'<line x1="{_num(px + 8)}" y1="{_num(ly - 4)}" x2="{_num(px + 26)}" '
            f'y2="{_num(ly - 4)}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_num(px + 30)}" y="{_num(ly)}" font-size="11">'
            f'{label.translate(_XML_ESCAPES)}</text>'
        )
    return out


def render_curves(header: list[str], rows: list[dict]) -> str:
    """Build the curves SVG from a parsed history table."""
    if not rows:
        raise MalformedCsv("history has no epoch rows to plot")
    epochs = [r["epoch"] for r in rows]
    loss_series = [
        (name, PALETTE[i], [r[name] for r in rows])
        for i, name in enumerate(("l_fo", "l_en", "l_d"))
    ]
    auc_cols = [c for c in header if c.startswith("auc_")]
    if not auc_cols:
        raise MalformedCsv("history has no auc_<domain> columns")
    auc_series = [
        (col[len("auc_"):], PALETTE[i % len(PALETTE)], [r[col] for r in rows])
        for i, col in enumerate(auc_cols)
    ]
    loss_top = max(max(vals) for _, _, vals in loss_series)
    loss_top = loss_top * 1.05 if loss_top > 0 else 1.0
    body = ['<rect width="100%" height="100%" fill="#ffffff"/>']
    body += _panel(16, 20, "training losses", loss_series, 0.0, loss_top, epochs)
    body += _panel(512, 20, "test AUC per domain", auc_series, 0.0, 1.0, epochs)
    parts = "\n".join(body)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace">\n{parts}\n</svg>\n'
    )
