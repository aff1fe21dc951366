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
read it and the support.

Edge classes are read off key parity.  An edge between keys k < q is an
arc when k and q have the same parity.  Otherwise, for even k (a bottom
vertex) it is a vertical when q = k + 1 and an upline when q is larger,
and for odd k (a top vertex) it is a downline.  The kernels below count
or refuse edges by these integer tests: ``_edge_counts``, which counts the
uplines, downlines and verticals in one pass over the bottom keys;
:func:`match_stats`, which adds the arcs to it and counts the walks of
``_component_walks``, the one component walk, which :func:`components`
reads too; :func:`is_callan`; and the filters of
:func:`enumerate_matchings`.

Matchings are read and written off their keys too.  :func:`mk_matching`
enters each edge's two keys in one pass over the edges, and the emitters
(``str``, :func:`matching_to_json_dict` and the renderers of ``diagrams``)
go over the key pairs k < q of the partner list, in key order, reading the
vertex (support[(k >> 1) - 1], k & 1) and the class off each key.  The
``edges`` view of ``MVertex`` pairs, each edge (smaller vertex, larger
vertex) in order of the smaller vertex, built from the partner list at
each read and kept nowhere, and :func:`edge_class`, which names the class
of one such edge, are kept for callers; the package itself reads neither.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from ._records import FrozenRecord, set_field
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


class PerfectMatching(FrozenRecord):
    """A partition of support x {0, 1} into unordered pairs.

    The constructor trusts its arguments: a matching from outside comes in
    through :func:`mk_matching` or :func:`matching_from_json_dict`, which
    validate it and build its partner list.  The support and the partner
    list are all it holds; the ``edges`` view is built from them at each
    read.
    """

    __slots__ = __match_args__ = ("support", "partner")
    support: tuple[int, ...]
    partner: tuple[int, ...]

    def __init__(self, support: tuple[int, ...], partner: tuple[int, ...]) -> None:
        set_field(self, "support", support)
        set_field(self, "partner", partner)

    @property
    def n(self) -> int:
        return len(self.support)

    @property
    def edges(self) -> tuple[Edge, ...]:
        supp = self.support
        return tuple(
            (_key_vertex(supp, k), _key_vertex(supp, q)) for k, q in _keyed_edges(self)
        )

    def __str__(self) -> str:
        supp = self.support
        return " ".join(
            f"({supp[(k >> 1) - 1]},{k & 1})-({supp[(q >> 1) - 1]},{q & 1})"
            for k, q in _keyed_edges(self)
        )


def _key_vertex(support: tuple[int, ...], key: int) -> MVertex:
    return MVertex(support[(key >> 1) - 1], key & 1)


def _keyed_edges(m: PerfectMatching) -> Iterator[tuple[int, int]]:
    """The keys k < q of each edge, in the order of the edges view.

    The emitters read these instead of ``MVertex`` pairs: key k is the
    vertex (support[(k >> 1) - 1], k & 1), and ``_edge_kind(k, q)`` names
    the edge's class.
    """
    return ((k, q) for k, q in enumerate(m.partner) if k < q)


_NOT_A_VERTEX = "vertex must be an [index, row] pair of integers: "


def mk_matching(
    support: Iterable[int], edges: Iterable[Sequence[Sequence[int] | MVertex]]
) -> PerfectMatching:
    """Validate a matching given as vertex pairs and build its partner list.

    One pass per edge unpacks both vertices, checks that their values are
    ``int`` (1.5, "1" and True are refused, not read as another vertex),
    looks up their slots and enters their keys; an ``MVertex`` is built only
    to word a refusal.
    """
    try:
        listed = tuple(support)
    except TypeError:
        listed = None
    # JSON reads 1e400 as inf: a float is refused here, not named as a vertex
    if listed is None or not all(type(v) is int for v in listed):
        raise ValueError(f"support must be a collection of integers: {support!r}")
    supp = tuple(sorted(set(listed)))
    if len(supp) != len(listed):
        raise ValueError(f"support lists a value twice: {support!r}")
    if supp and supp[0] < 1:
        raise ValueError("support must contain positive integers")
    bottom = {i: 2 * slot for slot, i in enumerate(supp, 1)}
    partner = [0] * (2 * len(supp) + 2)
    for pair in edges:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge must be a pair of vertices: {pair!r}") from None
        try:
            i, r = a
        except (TypeError, ValueError):
            i = r = None
        if type(i) is not int or type(r) is not int:
            raise ValueError(f"{_NOT_A_VERTEX}{a!r}")
        try:
            j, s = b
        except (TypeError, ValueError):
            j = s = None
        if type(j) is not int or type(s) is not int:
            raise ValueError(f"{_NOT_A_VERTEX}{b!r}")
        if i == j and r == s:
            raise ValueError(f"vertex paired with itself: {MVertex(i, r)}")
        ka = bottom.get(i)
        if ka is None or r not in (0, 1):
            raise ValueError(f"vertex outside the support rows: {MVertex(i, r)}")
        ka += r
        if partner[ka]:
            raise ValueError(f"vertex covered twice: {MVertex(i, r)}")
        kb = bottom.get(j)
        if kb is None or s not in (0, 1):
            raise ValueError(f"vertex outside the support rows: {MVertex(j, s)}")
        kb += s
        if partner[kb]:
            raise ValueError(f"vertex covered twice: {MVertex(j, s)}")
        partner[ka], partner[kb] = kb, ka
    if partner.count(0) > 2:  # keys 0 and 1 are unused
        missing = [_key_vertex(supp, k) for k in range(2, len(partner)) if not partner[k]]
        raise ValueError(f"uncovered vertices: {missing}")
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


class MatchStats(FrozenRecord):
    __slots__ = __match_args__ = ("arc", "up", "down", "ver", "com")
    arc: int
    up: int
    down: int
    ver: int
    com: int

    def __init__(self, arc: int, up: int, down: int, ver: int, com: int) -> None:
        set_field(self, "arc", arc)
        set_field(self, "up", up)
        set_field(self, "down", down)
        set_field(self, "ver", ver)
        set_field(self, "com", com)


def _component_walks(partner: Sequence[int]) -> Iterator[tuple[int, list[int]]]:
    """(smallest slot, keys entered on the walk from it) per component of
    the matching with partner list ``partner``, by smallest slot.

    The walk leaves the smallest slot by its bottom vertex and follows its
    edge; it leaves each slot it enters by that slot's other vertex, until
    it comes back to the top vertex of the smallest slot, whose key is not
    listed.  Every other slot of the component is entered exactly once.  On
    a partner list that is not an involution a walk can miss that vertex;
    it then stops at the first slot it enters twice, after at most n steps.
    """
    # a partner list holds 2n + 2 keys
    n = (len(partner) - 1) >> 1
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if not seen[start]:
            keys: list[int] = []
            out, close = 2 * start, 2 * start + 1
            while (key := partner[out]) != close:
                if seen[key >> 1]:
                    break
                keys.append(key)
                seen[key >> 1] = True
                out = key ^ 1
            yield start, keys


def _edge_counts(partner: Sequence[int]) -> tuple[int, int, int]:
    """(up, down, ver) of the matching with partner list ``partner``.

    One pass over the bottom keys and no component walk: the signed walk of
    ``verify``, which reads com off the cycles of the inverse core of gamma,
    calls this for the edge classes alone.
    """
    # every edge between the rows has one bottom end, an even key k: its
    # partner q is a bottom key (an arc) or a top key, q = k + 1 for a
    # vertical, larger for an upline, smaller for a downline
    up = down = ver = 0
    k = 0
    for q in partner[2::2]:
        k += 2
        if q & 1:
            if q == k + 1:
                ver += 1
            elif q > k:
                up += 1
            else:
                down += 1
    return up, down, ver


def match_stats(m: PerfectMatching) -> MatchStats:
    up, down, ver = _edge_counts(m.partner)
    com = sum(1 for _ in _component_walks(m.partner))
    # the vertices that no edge between the rows covers pair up in arcs, as
    # many in each row
    return MatchStats(m.n - up - down - ver, up, down, ver, com)


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
    for start, keys in _component_walks(m.partner):
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


def _matchings_core(n: int, flt: str = "all") -> Iterator[tuple[int, ...]]:
    """The partner lists of the matchings of :func:`enumerate_matchings`,
    in its order, each a fresh tuple of 2n + 2 keys on the support 1..n.

    The arguments are checked when it is called, before the stream starts.
    ``enumerate_matchings`` wraps each partner list in a ``PerfectMatching``;
    the Callan walk of ``verify`` reads them as they are.  The stream keeps
    the choices it has still to try on an explicit stack, so it hands each
    tuple to the caller from one frame, and it pairs the last two free keys
    where it reads them.
    """
    if flt not in MATCHING_FILTERS:
        raise ValueError(f"unknown filter: {flt!r}")
    if n < 0:
        raise ValueError("negative size")
    check_cap("matching enumeration", n)
    refused = _REFUSED[flt]
    # an even key a and an odd key b > a make a vertical when b = a + 1 and
    # an upline when b > a + 1; from an even a, the filter refuses the odd
    # keys from a + gap on (a gap past the last key refuses none)
    gap = 1 if "vertical" in refused else 3 if "upline" in refused else 2 * n + 2
    return _pairings(n, gap)


def _pairings(n: int, gap: int) -> Iterator[tuple[int, ...]]:
    """The stream of :func:`_matchings_core`: the smallest free key a is
    paired with each later free key b in increasing order, skipping an odd
    b from a + gap on when a is even, and the keys left are paired the same
    way."""
    end = 2 * n + 2
    # every path to a leaf writes every key, so no choice needs undoing
    partner = [0] * end
    # each entry pairs a with b and leaves the free keys rest, and the entry
    # to try next is on top; the first leaves every key free, and its pair
    # writes 0 into the unused key 0
    stack = [(0, 0, tuple(range(2, end)))]
    while stack:
        a, b, rest = stack.pop()
        partner[a], partner[b] = b, a
        if len(rest) > 2:
            a = rest[0]
            refuse_from = end if a & 1 else a + gap  # an odd a makes arcs and downlines
            for k in range(len(rest) - 1, 0, -1):  # pushed last to first: tried first to last
                b = rest[k]
                if b & 1 and b >= refuse_from:
                    continue
                stack.append((a, b, rest[1:k] + rest[k + 1 :]))
        elif rest:  # the last two free keys pair with each other
            a, b = rest
            if a & 1 or not (b & 1 and b >= a + gap):
                partner[a], partner[b] = b, a
                yield tuple(partner)
        else:  # n = 0: no key to pair
            yield tuple(partner)


def enumerate_matchings(n: int, flt: str = "all") -> Iterator[PerfectMatching]:
    """Stream the perfect matchings of {1..n} x {0, 1}, deterministically.

    The generator always pairs the smallest uncovered vertex, so the
    output order is lexicographic in the sequence of partner choices.
    The ``callan`` filter prunes on the first upline, ``callan_no_vertical``
    additionally on verticals; growth is (2n-1)!! unfiltered.
    """
    partners = _matchings_core(n, flt)
    support = tuple(range(1, n + 1))
    for partner in partners:
        yield PerfectMatching(support=support, partner=partner)


def matching_to_json_dict(m: PerfectMatching) -> dict:
    supp = m.support
    return {
        "support": list(supp),
        "edges": [
            [[supp[(k >> 1) - 1], k & 1], [supp[(q >> 1) - 1], q & 1]]
            for k, q in _keyed_edges(m)
        ],
    }


def matching_from_json_dict(data: dict) -> PerfectMatching:
    if not isinstance(data, dict):
        raise ValueError("matching JSON must be an object")
    try:
        support = data["support"]
        edges = data["edges"]
    except KeyError as exc:
        raise ValueError(f"matching JSON must have 'support' and 'edges': {exc}") from None
    if not isinstance(support, list) or not isinstance(edges, list):
        raise ValueError("matching JSON 'support' and 'edges' must be lists")
    return mk_matching(support, edges)
