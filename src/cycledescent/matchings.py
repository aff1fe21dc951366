"""
Perfect matchings of a two-row vertex set A x {0, 1}.

Vertices are (index, row) pairs drawn as two rows of dots, row 1 on top.
An edge inside one row is an *arc*; an edge {(i,0), (j,1)} between the
rows is an *upline* if i < j, a *downline* if i > j and a *vertical* if
i = j.  A *Callan* matching has no uplines.

Identifying (i,0) with (i,1) for every i turns a matching into a disjoint
union of cycles; the sub-matchings induced by those cycles are the
matching's connected components.

Storage: a matching holds its sorted support and a partner list.  The
index of rank r in the support sits in slot r + 1, and the vertex
(i, row) has the key 2 * slot + row.  Keys follow the (index, row) order,
a sparse support costs no more than 1..n, and on the support 1..n the key
is 2i + row.  partner[k] is the key matched to key k; keys 0 and 1 are
unused and hold 0.  A partner list is canonical, so equality and hashing
read it and the support.  The edge list is a view: each edge is
(smaller vertex, larger vertex), in order of the smaller vertex.

Edge classes are read off key parity.  An edge between keys k < q is an
arc when k and q have the same parity.  Otherwise, for even k (a bottom
vertex) it is a vertical when q = k + 1 and an upline when q is larger,
and for odd k (a top vertex) it is a downline.  The kernels below
(:func:`match_stats`, :func:`is_callan` and the filters of
:func:`enumerate_matchings`) count or refuse edges by these integer tests;
:func:`edge_class` names the class of one edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    validate it and build its partner list.
    """

    support: tuple[int, ...]
    partner: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.support)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        supp = self.support
        return tuple(
            (_key_vertex(supp, k), _key_vertex(supp, q))
            for k, q in enumerate(self.partner)
            if k < q
        )

    def __str__(self) -> str:
        return " ".join(f"({a.index},{a.row})-({b.index},{b.row})" for a, b in self.edges)


def _key_vertex(support: tuple[int, ...], key: int) -> MVertex:
    return MVertex(support[(key >> 1) - 1], key & 1)


def _vertex(v: Sequence[int] | MVertex) -> MVertex:
    try:
        index, row = v
    except (TypeError, ValueError):
        index = row = None
    # 1.5, "1" and True are refused, not read as another vertex
    if type(index) is not int or type(row) is not int:
        raise ValueError(f"vertex must be an [index, row] pair of integers: {v!r}")
    return MVertex(index, row)


def mk_matching(
    support: Iterable[int], edges: Iterable[Sequence[Sequence[int] | MVertex]]
) -> PerfectMatching:
    """Validate a matching given as vertex pairs and build its partner list."""
    try:
        listed = tuple(support)
        supp = tuple(sorted(set(listed)))
        positive = all(v >= 1 for v in supp)
    except TypeError:
        raise ValueError(f"support must be a collection of integers: {support!r}") from None
    if len(supp) != len(listed):
        raise ValueError(f"support lists a value twice: {support!r}")
    if not positive:
        raise ValueError("support must contain positive integers")
    bottom = {i: 2 * slot for slot, i in enumerate(supp, 1)}
    partner = [0] * (2 * len(supp) + 2)

    def key(v: MVertex) -> int:
        if v.index not in bottom or v.row not in (0, 1):
            raise ValueError(f"vertex outside the support rows: {v}")
        k = bottom[v.index] + v.row
        if partner[k]:
            raise ValueError(f"vertex covered twice: {v}")
        return k

    for pair in edges:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge must be a pair of vertices: {pair!r}") from None
        a, b = _vertex(a), _vertex(b)
        if a == b:
            raise ValueError(f"vertex paired with itself: {a}")
        ka, kb = key(a), key(b)
        partner[ka], partner[kb] = kb, ka
    missing = [_key_vertex(supp, k) for k in range(2, len(partner)) if not partner[k]]
    if missing:
        raise ValueError(f"uncovered vertices: {missing}")
    # 2.0 and True pass the checks above, as they equal the ints 2 and 1 that
    # edges name; the edge view prints support values, so they must be ints
    if not all(type(v) is int for v in supp):
        raise ValueError(f"support must be a collection of integers: {support!r}")
    return PerfectMatching(support=supp, partner=tuple(partner))


def _edge_kind(a: int, b: int) -> str:
    """Class of the edge between the vertices with keys a and b.

    Any key 2x + row in which x orders like the indices will do.
    """
    if (a ^ b) & 1 == 0:
        return "arc"
    bottom, top = (a, b) if a & 1 == 0 else (b, a)
    if bottom >> 1 == top >> 1:
        return "vertical"
    return "upline" if bottom < top else "downline"


def edge_class(edge: Edge) -> str:
    a, b = edge
    return _edge_kind(2 * a.index + a.row, 2 * b.index + b.row)


@dataclass(frozen=True)
class MatchStats:
    arc: int
    up: int
    down: int
    ver: int
    com: int


def _component_walks(m: PerfectMatching) -> Iterator[tuple[int, list[int]]]:
    """(smallest slot, keys entered on the walk from it) per component, by
    smallest slot.

    The walk leaves the smallest slot by its bottom vertex and follows its
    edge; it leaves each slot it enters by that slot's other vertex, until
    it comes back to the top vertex of the smallest slot, whose key is not
    listed.  Every other slot of the component is entered exactly once.
    """
    partner = m.partner
    seen = [False] * (m.n + 1)
    for start in range(1, m.n + 1):
        if not seen[start]:
            keys: list[int] = []
            out, close = 2 * start, 2 * start + 1
            while (key := partner[out]) != close:
                keys.append(key)
                seen[key >> 1] = True
                out = key ^ 1
            yield start, keys


def match_stats(m: PerfectMatching) -> MatchStats:
    # every edge between the rows has one bottom end, an even key k: its
    # partner q is a bottom key (an arc) or a top key, q = k + 1 for a
    # vertical, larger for an upline, smaller for a downline; the vertices
    # that no such edge covers pair up in arcs, as many in each row
    up = down = ver = 0
    partner = m.partner
    for k in range(2, len(partner), 2):
        q = partner[k]
        if q & 1:
            if q == k + 1:
                ver += 1
            elif q > k:
                up += 1
            else:
                down += 1
    # the walks of _component_walks, marking the slots they enter and
    # keeping no keys
    com = 0
    seen = [False] * (m.n + 1)
    for start in range(1, m.n + 1):
        if not seen[start]:
            com += 1
            out, close = 2 * start, 2 * start + 1
            while (key := partner[out]) != close:
                seen[key >> 1] = True
                out = key ^ 1
    return MatchStats(arc=m.n - up - down - ver, up=up, down=down, ver=ver, com=com)


def is_callan(m: PerfectMatching) -> bool:
    # an upline joins a bottom key k to a top key above k + 1
    partner = m.partner
    for k in range(2, len(partner), 2):
        q = partner[k]
        if q & 1 and q > k + 1:
            return False
    return True


def components(m: PerfectMatching) -> list[PerfectMatching]:
    """Induced sub-matchings, one per identification cycle, by min support."""
    out: list[PerfectMatching] = []
    for start, keys in _component_walks(m):
        slots = sorted([start, *(k >> 1 for k in keys)])
        new_slot = {s: r for r, s in enumerate(slots, 1)}
        partner = (0, 0, *(
            2 * new_slot[q >> 1] + (q & 1) for s in slots for q in m.partner[2 * s : 2 * s + 2]
        ))
        out.append(
            PerfectMatching(support=tuple(m.support[s - 1] for s in slots), partner=partner)
        )
    return out


# The edge classes each filter refuses.
_REFUSED = {"all": (), "callan": ("upline",), "callan_no_vertical": ("upline", "vertical")}
MATCHING_FILTERS = tuple(_REFUSED)


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
    support = tuple(range(1, n + 1))
    refused = _REFUSED[flt]
    # an even key a and an odd key b > a make a vertical when b = a + 1 and
    # an upline when b > a + 1; from an even a, the filter refuses the odd
    # keys from a + gap on (a gap past the last key refuses none)
    gap = 1 if "vertical" in refused else 3 if "upline" in refused else 2 * n + 2
    # every path to a leaf writes every key, so no choice needs undoing
    partner = [0] * (2 * n + 2)

    def rec(free: tuple[int, ...]) -> Iterator[PerfectMatching]:
        if not free:
            yield PerfectMatching(support=support, partner=tuple(partner))
            return
        a = free[0]
        refuse_from = 2 * n + 2 if a & 1 else a + gap  # an odd a makes arcs and downlines
        for k in range(1, len(free)):
            b = free[k]
            if b & 1 and b >= refuse_from:
                continue
            partner[a], partner[b] = b, a
            yield from rec(free[1:k] + free[k + 1 :])

    yield from rec(tuple(range(2, 2 * n + 2)))


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
