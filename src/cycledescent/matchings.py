"""
Perfect matchings of a two-row vertex set A x {0, 1}.

Vertices are (index, row) pairs drawn as two rows of dots, row 1 on top.
An edge inside one row is an *arc*; an edge {(i,0), (j,1)} between the
rows is an *upline* if i < j, a *downline* if i > j and a *vertical* if
i = j.  A *Callan* matching has no uplines.

Identifying (i,0) with (i,1) for every i turns a matching into a disjoint
union of cycles; the sub-matchings induced by those cycles are the
matching's connected components.

Canonical ordering: inside an edge, vertices sort by (index, row); the
edge list sorts by its smaller vertex.  This makes equality, hashing and
the JSON form deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .caps import check_cap

__all__ = [
    "MVertex",
    "Edge",
    "PerfectMatching",
    "MatchStats",
    "mk_matching",
    "edge_class",
    "match_stats",
    "is_callan",
    "components",
    "enumerate_matchings",
    "matching_to_json_dict",
    "matching_from_json_dict",
    "MATCHING_FILTERS",
]


class MVertex(NamedTuple):
    index: int
    row: int


Edge = tuple[MVertex, MVertex]


@dataclass(frozen=True)
class PerfectMatching:
    """A partition of support x {0, 1} into unordered pairs.

    The constructor trusts its arguments: a matching from outside comes in
    through :func:`mk_matching` or :func:`matching_from_json_dict`, which
    validate and canonicalize it.
    """

    support: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.support)

    def partner_map(self) -> dict[MVertex, MVertex]:
        out: dict[MVertex, MVertex] = {}
        for a, b in self.edges:
            out[a] = b
            out[b] = a
        return out

    def __str__(self) -> str:
        return " ".join(f"({a.index},{a.row})-({b.index},{b.row})" for a, b in self.edges)


def _vertex(v: Sequence[int] | MVertex) -> MVertex:
    try:
        index, row = v
        return MVertex(int(index), int(row))
    except (TypeError, ValueError):
        raise ValueError(f"vertex must be an [index, row] pair of integers: {v!r}") from None


def mk_matching(
    support: Iterable[int], edges: Iterable[Sequence[Sequence[int] | MVertex]]
) -> PerfectMatching:
    """Validate and canonicalize a matching given as vertex pairs."""
    try:
        supp = tuple(sorted(set(support)))
        positive = all(v >= 1 for v in supp)
    except TypeError:
        raise ValueError(f"support must be a collection of integers: {support!r}") from None
    if not positive:
        raise ValueError("support must contain positive integers")
    required = {MVertex(i, r) for i in supp for r in (0, 1)}
    canon: list[Edge] = []
    covered: set[MVertex] = set()
    for pair in edges:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge must be a pair of vertices: {pair!r}") from None
        a, b = _vertex(a), _vertex(b)
        if a == b:
            raise ValueError(f"vertex paired with itself: {a}")
        for v in (a, b):
            if v not in required:
                raise ValueError(f"vertex outside the support rows: {v}")
            if v in covered:
                raise ValueError(f"vertex covered twice: {v}")
            covered.add(v)
        canon.append(tuple(sorted((a, b))))
    if covered != required:
        missing = sorted(required - covered)
        raise ValueError(f"uncovered vertices: {missing}")
    return PerfectMatching(support=supp, edges=tuple(sorted(canon)))


# Internal code addresses the vertex (i, r) of a matching of 1..n by the
# key 2i + r, so keys follow the canonical (index, row) order, and holds a
# matching as a partner list: partner[k] is the key matched to key k
# (slots 0 and 1 are unused).


def _from_partners(partner: Sequence[int]) -> PerfectMatching:
    """Trusted constructor from a partner list of a perfect matching of 1..n.

    Each edge is emitted once, at its smaller key, in increasing key order,
    which is the canonical edge order of :func:`mk_matching`.
    """
    edges = tuple(
        (MVertex(k >> 1, k & 1), MVertex(q >> 1, q & 1))
        for k, q in enumerate(partner)
        if k < q
    )
    return PerfectMatching(support=tuple(range(1, len(partner) // 2)), edges=edges)


def _partners(m: PerfectMatching) -> list[int]:
    """Partner list of a matching whose support is 1..n."""
    partner = [0] * (2 * m.n + 2)
    for a, b in m.edges:
        ka, kb = 2 * a.index + a.row, 2 * b.index + b.row
        partner[ka] = kb
        partner[kb] = ka
    return partner


def edge_class(edge: Edge) -> str:
    a, b = edge
    if a.row == b.row:
        return "arc"
    bottom, top = (a, b) if a.row == 0 else (b, a)
    if bottom.index < top.index:
        return "upline"
    if bottom.index > top.index:
        return "downline"
    return "vertical"


@dataclass(frozen=True)
class MatchStats:
    arc: int
    up: int
    down: int
    ver: int
    com: int


def _component_supports(m: PerfectMatching) -> list[list[int]]:
    parent = {i: i for i in m.support}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in m.edges:
        ra, rb = find(a.index), find(b.index)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in m.support:
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def match_stats(m: PerfectMatching) -> MatchStats:
    kinds = {"arc": 0, "upline": 0, "downline": 0, "vertical": 0}
    for e in m.edges:
        kinds[edge_class(e)] += 1
    return MatchStats(
        arc=kinds["arc"],
        up=kinds["upline"],
        down=kinds["downline"],
        ver=kinds["vertical"],
        com=len(_component_supports(m)) if m.support else 0,
    )


def is_callan(m: PerfectMatching) -> bool:
    return all(edge_class(e) != "upline" for e in m.edges)


def components(m: PerfectMatching) -> list[PerfectMatching]:
    """Induced sub-matchings, one per identification cycle, by min support."""
    out: list[PerfectMatching] = []
    for group in _component_supports(m):
        members = set(group)
        edges = tuple(e for e in m.edges if e[0].index in members)
        out.append(PerfectMatching(support=tuple(group), edges=edges))
    return out


MATCHING_FILTERS = ("all", "callan", "callan_no_vertical")


def enumerate_matchings(n: int, flt: str = "all") -> Iterator[PerfectMatching]:
    """Stream the perfect matchings of {1..n} x {0, 1}, deterministically.

    The generator always pairs the smallest uncovered vertex, so the
    output order is lexicographic in the sequence of partner choices.
    The ``callan`` filter prunes on the first upline, ``callan_no_vertical``
    additionally on verticals; growth is (2n-1)!! unfiltered.
    """
    if flt not in MATCHING_FILTERS:
        raise ValueError(f"unknown filter: {flt!r}")
    if n < 0:
        raise ValueError("negative size")
    check_cap("matching enumeration", n)
    vertices = [MVertex(i, r) for i in range(1, n + 1) for r in (0, 1)]
    support = tuple(range(1, n + 1))
    forbid_vertical = flt == "callan_no_vertical"
    prune_uplines = flt in ("callan", "callan_no_vertical")
    chosen: list[Edge] = []
    free = vertices  # working copy handed down the recursion

    def admissible(a: MVertex, b: MVertex) -> bool:
        cls = edge_class((a, b))
        if prune_uplines and cls == "upline":
            return False
        if forbid_vertical and cls == "vertical":
            return False
        return True

    # ``free`` stays sorted and ``a`` is its smallest vertex, so every edge
    # is chosen as (smaller, larger) and ``chosen`` grows in canonical order
    def rec(free: tuple[MVertex, ...]) -> Iterator[PerfectMatching]:
        if not free:
            yield PerfectMatching(support=support, edges=tuple(chosen))
            return
        a = free[0]
        for k in range(1, len(free)):
            b = free[k]
            if not admissible(a, b):
                continue
            chosen.append((a, b))
            yield from rec(free[1:k] + free[k + 1 :])
            chosen.pop()

    yield from rec(tuple(free))


def matching_to_json_dict(m: PerfectMatching) -> dict:
    return {
        "support": list(m.support),
        "edges": [[[a.index, a.row], [b.index, b.row]] for a, b in m.edges],
    }


def matching_from_json_dict(data: dict) -> PerfectMatching:
    try:
        support = data["support"]
        edges = data["edges"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"matching JSON must have 'support' and 'edges': {exc}") from None
    if not isinstance(support, list) or not isinstance(edges, list):
        raise ValueError("matching JSON 'support' and 'edges' must be lists")
    return mk_matching(support, edges)
