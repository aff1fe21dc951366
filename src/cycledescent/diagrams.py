"""
Dot-diagram rendering of two-row perfect matchings, as text or SVG.

Layout is deterministic: each support index sits at the horizontal slot
of its rank in the support, row 1 is the top row.  Arcs are drawn as
semicircles bulging away from the rows (upward above row 1, downward below
row 0); lines between the rows are straight segments.  Non-Callan
matchings render fine, with uplines highlighted and a warning attached.
"""

from __future__ import annotations

from .matchings import PerfectMatching, edge_class, is_callan

__all__ = ["render_text", "render_svg"]


def render_text(m: PerfectMatching) -> str:
    """Two-line vertex grid plus the edge list grouped by class."""
    width = max((len(str(i)) for i in m.support), default=1)
    grid = " ".join(f"{i:>{width}}" for i in m.support)
    lines = [f"row 1: {grid}", f"row 0: {grid}"]
    by_class: dict[str, list[str]] = {"arc": [], "upline": [], "downline": [], "vertical": []}
    for a, b in m.edges:
        by_class[edge_class((a, b))].append(
            f"({a.index},{a.row})-({b.index},{b.row})"
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
    """Standalone SVG document for the dot diagram."""
    # slots follow the rank within the support so sparse supports stay compact
    slot = {i: _MARGIN + _STEP * rank for rank, i in enumerate(m.support)}
    width = _MARGIN * 2 + _STEP * max(len(m.support) - 1, 0)
    height = _BOTTOM_Y + _TOP_Y
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
    ]
    if not is_callan(m):
        out.append("<!-- warning: matching has uplines (not Callan) -->")
    for a, b in m.edges:
        x1, x2 = slot[a.index], slot[b.index]
        kind = edge_class((a, b))
        color = "#cc2222" if kind == "upline" else "#222222"
        if kind == "arc":
            y = _TOP_Y if a.row == 1 else _BOTTOM_Y
            sweep = 1 if a.row == 1 else 0
            r = abs(x2 - x1) / 2.0
            out.append(
                f'<path d="M {x1:.1f} {y:.1f} A {r:.1f} {r:.1f} 0 0 {sweep} '
                f'{x2:.1f} {y:.1f}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        else:
            y1 = _TOP_Y if a.row == 1 else _BOTTOM_Y
            y2 = _TOP_Y if b.row == 1 else _BOTTOM_Y
            out.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
    for i, x in slot.items():
        for y in (_TOP_Y, _BOTTOM_Y):
            out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#222222"/>')
        out.append(
            f'<text x="{x:.1f}" y="{_BOTTOM_Y + 24:.1f}" font-size="12" '
            f'text-anchor="middle">{i}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
