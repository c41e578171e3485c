"""Plot-ready long-format tables (series, x, y, ylo, yhi) and a minimal
deterministic SVG line-chart emitter.

The SVG path avoids any plotting library on purpose: output must be
byte-identical across runs, so it is a plain polyline rendering with a fixed
palette and no timestamps or generated ids.
"""

from __future__ import annotations

import math
from pathlib import Path

from .runner import ResultTable, _fmt

__all__ = ["emit_plot_data", "render_svg"]

_PALETTE = ["#1b6ca8", "#d1495b", "#3a7d44", "#8d5a97", "#c77d2e", "#4f6d7a",
            "#a03e99", "#2e933c", "#b8336a", "#726953"]
_WIDTH, _HEIGHT = 640, 480  # SVG canvas, pixels


def _series_name(row: dict, parts: list[str]) -> str:
    bits = []
    for p in parts:
        val = row.get(p)
        if val not in (None, ""):
            bits.append(f"{p}={val}" if p not in ("matrix", "family") else str(val))
    return "/".join(bits)


_LAYOUTS = {
    # experiment: (series key parts, x column, y columns, ylo, yhi); with more
    # than one y column, each is its own series, named <parts>/<column>
    "rate_sweep": (["matrix", "family", "s"], "k", ["rate"], None, None),
    "convergence_curves": (["matrix", "family", "k", "s"], "t", ["rel_err_mean"],
                           "rel_err_min", "rel_err_max"),
    "surrogate_compare": (["matrix", "family"], "k", ["s_min", "surrogate"], None, None),
    "sparsity_sweep": (["matrix", "family", "k"], "s", ["rel_err_mean"],
                       "rel_err_min", "rel_err_max"),
    "randsvd_err": (["matrix", "family", "s"], "k", ["err_normalized"], None, None),
    "eigendecay": (["matrix", "family", "k", "s"], "l", ["contraction"], None, None),
    "newton_demo": (["matrix", "family", "s"], "k", ["rho_hat"], None, None),
}


def emit_plot_data(table: ResultTable, out_dir, svg: bool = False) -> Path:
    """Write ``<experiment>_plot.csv`` (and optionally an SVG chart), with the
    experiment's layout taken from ``table.name``.

    Raises ValueError for an unknown experiment or an empty table; no file is
    written in either case.
    """
    experiment = table.name
    if experiment not in _LAYOUTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    parts, x_col, y_cols, lo_col, hi_col = _LAYOUTS[experiment]
    rows = [
        {
            "series": _series_name(row, parts) + (f"/{y_col}" if len(y_cols) > 1 else ""),
            "x": row[x_col],
            "y": row[y_col],
            "ylo": row.get(lo_col) if lo_col else None,
            "yhi": row.get(hi_col) if hi_col else None,
        }
        for y_col in y_cols
        for row in table.rows
    ]
    if not rows:
        raise ValueError(f"no rows to plot for {experiment!r}")
    out = Path(out_dir)
    path = out / f"{experiment}_plot.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("series,x,y,ylo,yhi\n")
        for r in rows:
            fh.write(
                f"{r['series']},{_fmt(r['x'])},{_fmt(r['y'])},"
                f"{_fmt(r['ylo'])},{_fmt(r['yhi'])}\n"
            )
    if svg:
        render_svg(rows, out / f"{experiment}.svg", title=experiment)
    return path


def render_svg(rows: list[dict], path, title: str = "") -> None:
    """Deterministic polyline chart of the long-format rows; a row without an
    x (a dense cell of a sparsity sweep has no s) is left out."""
    series: dict[str, list[tuple[float, float, float | None, float | None]]] = {}
    for r in rows:
        if r["x"] in (None, ""):
            continue
        series.setdefault(r["series"], []).append(
            (float(r["x"]), float(r["y"]),
             None if r["ylo"] in (None, "") else float(r["ylo"]),
             None if r["yhi"] in (None, "") else float(r["yhi"])))
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [v for pts in series.values() for p in pts
          for v in (p[1], p[2], p[3]) if v is not None]
    x0, x1 = min(xs, default=0.0), max(xs, default=1.0)
    y0, y1 = min(ys, default=0.0), max(ys, default=1.0)
    logy = y0 > 0.0 and y1 / y0 > 50.0
    if logy:
        y0, y1 = math.log10(y0), math.log10(y1)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 50.0

    def sx(x: float) -> float:
        return pad + (x - x0) / (x1 - x0) * (_WIDTH - 2 * pad)

    def sy(y: float) -> float:
        if logy:
            y = math.log10(y)
        return _HEIGHT - pad - (y - y0) / (y1 - y0) * (_HEIGHT - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}{" (log y)" if logy else ""}</text>',
        f'<line x1="{pad}" y1="{_HEIGHT - pad}" x2="{_WIDTH - pad}" y2="{_HEIGHT - pad}" '
        f'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{_HEIGHT - pad}" stroke="black"/>',
    ]
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        pts = sorted(pts)
        if any(p[2] is not None and p[3] is not None for p in pts):
            band = [p for p in pts if p[2] is not None and p[3] is not None]
            upper = " ".join(f"{sx(x):.2f},{sy(hi):.2f}" for x, _, _, hi in band)
            lower = " ".join(f"{sx(x):.2f},{sy(lo):.2f}" for x, _, lo, _ in reversed(band))
            parts.append(
                f'<polygon points="{upper} {lower}" fill="{color}" opacity="0.15"/>')
        line = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y, _, _ in pts)
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_WIDTH - pad + 4:.1f}" y="{pad + 14 * i:.1f}" fill="{color}" '
            f'font-family="monospace" font-size="10" text-anchor="end">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
