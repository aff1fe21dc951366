"""
Dot-diagram rendering of two-row perfect matchings, as text or SVG.

Layout is deterministic: each support index sits at the horizontal slot
of its rank in the support, row 1 is the top row.  Arcs are drawn as
semicircles bulging away from the rows (upward above row 1, downward below
row 0); lines between the rows are straight segments.  Non-Callan
matchings render fine, with uplines highlighted and a warning attached.
Both renderers read each edge's vertices and class off its partner keys.
"""

from __future__ import annotations

from .matchings import PerfectMatching, _edge_kind, _keyed_edges, is_callan

__all__ = ["render_text", "render_svg"]


def render_text(m: PerfectMatching) -> str:
    """Two-line vertex grid plus the edge list grouped by class."""
    supp = m.support
    width = max((len(str(i)) for i in supp), default=1)
    grid = " ".join(f"{i:>{width}}" for i in supp)
    lines = [f"row 1: {grid}", f"row 0: {grid}"]
    by_class: dict[str, list[str]] = {"arc": [], "upline": [], "downline": [], "vertical": []}
    for k, q in _keyed_edges(m):
        by_class[_edge_kind(k, q)].append(
            f"({supp[(k >> 1) - 1]},{k & 1})-({supp[(q >> 1) - 1]},{q & 1})"
        )
    for kind in ("arc", "upline", "downline", "vertical"):
        body = "  ".join(by_class[kind]) if by_class[kind] else "-"
        lines.append(f"{kind + ':':<10}{body}")
    if not is_callan(m):
        lines.append("warning: matching has uplines (not Callan)")
    return "\n".join(lines) + "\n"


_STEP = 40.0
_TOP_Y = 60.0
_BOTTOM_Y = 140.0
_MARGIN = 40.0


def render_svg(m: PerfectMatching) -> str:
    """Standalone SVG document for the dot diagram.

    Each slot's x coordinate and the y of each row are formatted once per
    call; of the numbers in the drawing, only an arc's radius is formatted
    per edge.
    """
    # slots follow the rank within the support so sparse supports stay compact;
    # key k sits at slot k >> 1 in row k & 1
    x = [0.0] + [_MARGIN + _STEP * rank for rank in range(m.n)]
    xs = [f"{v:.1f}" for v in x]
    ys = (f"{_BOTTOM_Y:.1f}", f"{_TOP_Y:.1f}")
    width = _MARGIN * 2 + _STEP * max(m.n - 1, 0)
    height = _BOTTOM_Y + _TOP_Y
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
    ]
    if not is_callan(m):
        out.append("<!-- warning: matching has uplines (not Callan) -->")
    for k, q in _keyed_edges(m):
        a, b = k >> 1, q >> 1
        kind = _edge_kind(k, q)
        color = "#cc2222" if kind == "upline" else "#222222"
        if kind == "arc":
            row = k & 1
            r = f"{abs(x[b] - x[a]) / 2.0:.1f}"
            out.append(
                f'<path d="M {xs[a]} {ys[row]} A {r} {r} 0 0 {row} '
                f'{xs[b]} {ys[row]}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        else:
            out.append(
                f'<line x1="{xs[a]}" y1="{ys[k & 1]}" x2="{xs[b]}" y2="{ys[q & 1]}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
    label_y = f"{_BOTTOM_Y + 24:.1f}"
    for i, cx in zip(m.support, xs[1:]):
        out.append(f'<circle cx="{cx}" cy="{ys[1]}" r="4" fill="#222222"/>')
        out.append(f'<circle cx="{cx}" cy="{ys[0]}" r="4" fill="#222222"/>')
        out.append(
            f'<text x="{cx}" y="{label_y}" font-size="12" '
            f'text-anchor="middle">{i}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
