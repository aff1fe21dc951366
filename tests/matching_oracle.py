"""Naive oracles for the key-based matching code, shared by the tests.

``naive_stats`` reads each edge's class off its two vertices and counts
components by a union-find over indices, so it shares no code with the
partner-key arithmetic of ``matchings``.  ``naive_partner_lists`` gives the
partner lists of every matching of 1..n in the order of the unfiltered
stream, by a plain recursion that pairs the smallest free key with each
later free key in increasing order.  ``matching_str``,
``matching_to_json_dict``, ``render_text`` and ``render_svg`` are the
emitters as they were before they read partner keys: they walk the
``edges`` view of ``MVertex`` pairs and name each edge with ``edge_class``.
``naive_theta`` and ``naive_gamma`` follow the paper's steps 1-3 for
``theta`` literally on cycles read off the one-line word: a cycle of 1..l
is cut into block lists, its edges are made as ``MVertex`` pairs and
``mk_matching`` builds the matching; ``naive_gamma`` first relabels each
cycle onto 1..len and maps the edges of its image back onto the cycle's
values.  They share no code with ``bijections``.
"""

from cycledescent.matchings import MVertex, PerfectMatching, edge_class, is_callan, mk_matching


def naive_stats(m):
    """Edge classes read off the vertex pairs, and a union-find over indices."""
    kinds = {"arc": 0, "upline": 0, "downline": 0, "vertical": 0}
    root = {i: i for i in m.support}

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for a, b in m.edges:
        if a.row == b.row:
            kind = "arc"
        else:
            bottom, top = (a, b) if a.row == 0 else (b, a)
            kind = "vertical" if bottom.index == top.index else (
                "upline" if bottom.index < top.index else "downline"
            )
        assert edge_class((a, b)) == kind
        kinds[kind] += 1
        root[find(a.index)] = find(b.index)
    groups = {}
    for i in m.support:
        groups.setdefault(find(i), []).append(i)
    return kinds, sorted(tuple(g) for g in groups.values())


def naive_partner_lists(n):
    """Partner lists of the matchings of 1..n: the smallest free key is
    paired with each later free key in increasing order, and the rest
    recursively; keys 0 and 1 are unused."""

    def pairings(free):
        if not free:
            yield {}
            return
        a = free[0]
        for b in free[1:]:
            for rest in pairings([k for k in free if k not in (a, b)]):
                yield {a: b, b: a, **rest}

    for pairs in pairings(list(range(2, 2 * n + 2))):
        yield tuple(pairs.get(k, 0) for k in range(2 * n + 2))


def naive_cycles(word):
    """The cycles of a one-line word, each from its minimum, by increasing minima."""
    cycles, seen = [], set()
    for start in range(1, len(word) + 1):
        if start not in seen:
            cycle, v = [], start
            while v not in seen:
                seen.add(v)
                cycle.append(v)
                v = word[v - 1]
            cycles.append(cycle)
    return cycles


def naive_theta_edges(cycle, neg):
    """Steps 1-3 of theta on a cycle of 1..l from 1, as ``MVertex`` pairs."""
    blocks, block = [], []
    for v in cycle:
        block.append(v)
        if v not in neg:  # a bar after each positive value
            blocks.append(block)
            block = []
    edges = []
    for b in blocks:  # step 1: (b_j, 0)-(b_{j+1}, 1) inside each block
        edges += [(MVertex(x, 0), MVertex(y, 1)) for x, y in zip(b, b[1:])]
    for k in range(1, len(blocks)):  # step 2: block k to block k + 1
        this, nxt = blocks[k - 1], blocks[k]
        if k % 2:
            edges.append((MVertex(min(this), 0), MVertex(min(nxt), 0)))
        else:
            edges.append((MVertex(max(this), 1), MVertex(max(nxt), 1)))
    last = blocks[-1]  # step 3: close at (1, 1)
    if len(blocks) % 2:
        edges.append((MVertex(1, 1), MVertex(min(last), 0)))
    else:
        edges.append((MVertex(1, 1), MVertex(max(last), 1)))
    return edges


def naive_theta(s):
    """theta of a cyclic signed permutation of 1..n."""
    (cycle,) = naive_cycles(s.perm.word)
    return mk_matching(range(1, s.n + 1), naive_theta_edges(cycle, s.neg))


def naive_gamma(s):
    """gamma as theta on each cycle, relabelled onto 1..len and back."""
    edges = []
    for cycle in naive_cycles(s.perm.word):
        values = sorted(cycle)
        rank = {v: r for r, v in enumerate(values, 1)}
        small = [rank[v] for v in cycle]
        small_neg = {rank[v] for v in cycle if v in s.neg}
        theta_image = mk_matching(range(1, len(cycle) + 1), naive_theta_edges(small, small_neg))
        edges += [
            (MVertex(values[a.index - 1], a.row), MVertex(values[b.index - 1], b.row))
            for a, b in theta_image.edges
        ]
    return mk_matching(range(1, s.n + 1), edges)


def matching_str(m: PerfectMatching) -> str:
    return " ".join(f"({a.index},{a.row})-({b.index},{b.row})" for a, b in m.edges)


def matching_to_json_dict(m: PerfectMatching) -> dict:
    return {
        "support": list(m.support),
        "edges": [[[a.index, a.row], [b.index, b.row]] for a, b in m.edges],
    }


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
