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


def _walk(partner: Sequence[int], slot: int) -> list[int]:
    """Keys entered on the walk around the component of ``slot``.

    The walk leaves ``slot`` by its bottom vertex and follows its edge; it
    leaves each slot it enters by that slot's other vertex, until it comes
    back to the top vertex of ``slot``, whose key is not listed.  Every
    other slot of the component is entered exactly once.
    """
    keys: list[int] = []
    out, close = 2 * slot, 2 * slot + 1
    while (key := partner[out]) != close:
        keys.append(key)
        out = key ^ 1
    return keys


def _component_walks(m: PerfectMatching) -> Iterator[tuple[int, list[int]]]:
    """(smallest slot, :func:`_walk` from it) per component, by smallest slot."""
    seen = [False] * (m.n + 1)
    for start in range(1, m.n + 1):
        if not seen[start]:
            keys = _walk(m.partner, start)
            for k in keys:
                seen[k >> 1] = True
            yield start, keys


def match_stats(m: PerfectMatching) -> MatchStats:
    kinds = {"arc": 0, "upline": 0, "downline": 0, "vertical": 0}
    for k, q in enumerate(m.partner):
        if k < q:
            kinds[_edge_kind(k, q)] += 1
    return MatchStats(
        arc=kinds["arc"],
        up=kinds["upline"],
        down=kinds["downline"],
        ver=kinds["vertical"],
        com=sum(1 for _ in _component_walks(m)),
    )


def is_callan(m: PerfectMatching) -> bool:
    return all(_edge_kind(k, q) != "upline" for k, q in enumerate(m.partner) if k < q)


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
    # every path to a leaf writes every key, so no choice needs undoing
    partner = [0] * (2 * n + 2)

    def rec(free: tuple[int, ...]) -> Iterator[PerfectMatching]:
        if not free:
            yield PerfectMatching(support=support, partner=tuple(partner))
            return
        a = free[0]
        for k in range(1, len(free)):
            b = free[k]
            if _edge_kind(a, b) in refused:
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
