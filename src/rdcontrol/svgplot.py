"""Minimal self-contained SVG line plots (no plotting dependency).

Emits fixed-size 800x600 documents with axes, tick labels and colored
polylines; enough to reproduce profile plots and phase portraits."""

from __future__ import annotations

import numpy as np

W, H = 800, 600
MARGIN = 60


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, 5)


def line_plot(path: str, series: list, title: str, xlabel: str, ylabel: str) -> None:
    """series: list of (x_array, y_array, color, label)."""
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (W - 2 * MARGIN)

    def sy(y):
        return H - MARGIN - (y - y_lo) / (y_hi - y_lo) * (H - 2 * MARGIN)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>']
    parts.append(f'<text x="{W/2}" y="24" text-anchor="middle" font-size="16">{title}</text>')
    ax = f'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{MARGIN}" y1="{H-MARGIN}" x2="{W-MARGIN}" y2="{H-MARGIN}" {ax}/>')
    parts.append(f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{H-MARGIN}" {ax}/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(t):.1f}" y1="{H-MARGIN}" x2="{sx(t):.1f}" y2="{H-MARGIN+5}" {ax}/>')
        parts.append(f'<text x="{sx(t):.1f}" y="{H-MARGIN+20}" text-anchor="middle" '
                     f'font-size="11">{t:.3g}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{MARGIN-5}" y1="{sy(t):.1f}" x2="{MARGIN}" y2="{sy(t):.1f}" {ax}/>')
        parts.append(f'<text x="{MARGIN-8}" y="{sy(t)+4:.1f}" text-anchor="end" '
                     f'font-size="11">{t:.3g}</text>')
    parts.append(f'<text x="{W/2}" y="{H-12}" text-anchor="middle" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{H/2}" text-anchor="middle" font-size="13" '
                 f'transform="rotate(-90 16 {H/2})">{ylabel}</text>')
    for i, (x, y, color, label) in enumerate(series):
        px = sx(np.asarray(x, dtype=float)).tolist()
        py = sy(np.asarray(y, dtype=float)).tolist()
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(px, py)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if label:
            ly = MARGIN + 16 * (i + 1)
            parts.append(f'<line x1="{W-MARGIN-120}" y1="{ly-4}" x2="{W-MARGIN-95}" y2="{ly-4}" '
                         f'stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{W-MARGIN-90}" y="{ly}" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def phase_portrait(path: str, nl, trajectory, title: str) -> None:
    """(p, p') trajectory with the two level sets of the phase energy
    E = v^2/2 + F(p) at heights F(1) (red) and F(0) (blue) overlaid."""
    series = [(trajectory.p, trajectory.v, "black", "trajectory")]
    p_grid = np.linspace(-0.02, 1.02, 400)
    for level, color, name in ((float(nl.F(1.0)), "red", "E = F(1)"),
                               (0.0, "blue", "E = F(0)")):
        arg = 2.0 * (level - np.asarray(nl.F(p_grid)))
        mask = arg >= 0.0
        if not np.any(mask):
            continue
        v = np.sqrt(arg[mask])
        pm = p_grid[mask]
        series.append((np.concatenate([pm, pm[::-1]]),
                       np.concatenate([v, -v[::-1]]), color, name))
    line_plot(path, series, title=title, xlabel="p", ylabel="p'")
