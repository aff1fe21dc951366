"""
Signed permutations and their bijection with Callan perfect matchings.

A signed permutation attaches a sign to every value; ``neg`` holds the
negatively signed values.  It is a *negative cycle descent* permutation
when every negative value is a cycle descent of the underlying
permutation.  Such objects are counted by the y = 2 specialization of the
cycle-descent distribution, and this module realizes the counting
bijection explicitly:

- ``theta``/``theta_inv``: a cyclic negative-cycle-descent permutation of
  1..l versus a *connected* Callan matching of {1..l} x {0, 1}.  The cycle
  is cut into blocks after each positive value; block interiors become
  downlines, consecutive blocks are joined by arcs alternating bottom/top,
  and a final edge at (1, 1) closes the matching.
- ``gamma``/``gamma_inv``: the full correspondence, applying ``theta``
  cyclewise through the order-preserving relabelling of each cycle's
  support.  Components map to cycles (com = cyc) and verticals to fixed
  points (ver = fix).

Notation: ``(1+ 6- 4- 3+ 2+ 8- 7- 5+)`` writes a signed cycle; an omitted
sign means +.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .caps import check_cap
from .matchings import PerfectMatching, is_callan
from .perms import (
    Permutation,
    _parse_form,
    enumerate_permutations,
    permutation_from_cycles,
    standard_cycles,
    statistics,
)

__all__ = [
    "SignedPermutation",
    "BlockSeq",
    "is_negative_cdes",
    "enumerate_negative_cdes",
    "blocks",
    "theta",
    "theta_inv",
    "gamma",
    "gamma_inv",
    "parse_signed",
    "format_signed",
    "signed_to_json_dict",
    "signed_from_json_dict",
]


@dataclass(frozen=True)
class SignedPermutation:
    """A permutation plus the set of values carrying sign -1.

    The public constructor checks that ``neg`` is a set of ints in 1..n.
    Code in this package that has already built a valid ``neg`` wraps it
    with :meth:`_trusted` instead: :func:`enumerate_negative_cdes`, whose
    signs are cycle descents, and :func:`gamma_inv`/:func:`theta_inv`,
    whose signs are read off the slots of a support checked to be 1..n.
    """

    perm: Permutation
    neg: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "neg", frozenset(self.neg))
        if not self.neg <= frozenset(range(1, self.perm.n + 1)):
            raise ValueError(f"negative values outside 1..{self.perm.n}: {set(self.neg)}")
        # a value that only equals an integer (3.0, True) names no value
        if not all(type(v) is int for v in self.neg):
            raise ValueError(f"negative values must be integers: {set(self.neg)}")

    @classmethod
    def _trusted(cls, perm: Permutation, neg: frozenset[int]) -> SignedPermutation:
        """Wrap a frozenset of ints already known to lie in 1..perm.n."""
        s = object.__new__(cls)
        object.__setattr__(s, "perm", perm)
        object.__setattr__(s, "neg", neg)
        return s

    @property
    def n(self) -> int:
        return self.perm.n

    def __str__(self) -> str:
        return format_signed(self)


@dataclass(frozen=True)
class BlockSeq:
    """Cycle blocks cut after each positive value; blocks are decreasing."""

    blocks: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return "|" + "|".join("".join(str(v) for v in b) for b in self.blocks) + "|"


def is_negative_cdes(sp: SignedPermutation) -> bool:
    """True when every negative value is a cycle descent of the permutation."""
    return sp.neg <= statistics(sp.perm).cdes_set


def enumerate_negative_cdes(
    n: int, flt: str = "all"
) -> Iterator[SignedPermutation]:
    """Stream all (pi, S) with S a subset of the cycle descents of pi.

    ``flt`` is ``all`` or ``derangement``.  Permutations come in
    lexicographic order; for each, sign subsets count up in binary over
    the sorted descent values.
    """
    if flt not in ("all", "derangement"):
        raise ValueError(f"unknown filter: {flt!r}")
    check_cap("signed enumeration", n)
    family = "derangements" if flt == "derangement" else "all"
    for p in enumerate_permutations(family, n):
        # doubling over the sorted descents: subset k holds descent j
        # exactly when bit j of k is set
        subsets = [frozenset()]
        for d in sorted(statistics(p).cdes_set):
            subsets += [s | {d} for s in subsets]
        for chosen in subsets:
            yield SignedPermutation._trusted(p, chosen)


def _cut(cycle: Sequence[int], neg: frozenset[int]) -> list[list[int]]:
    out: list[list[int]] = []
    block: list[int] = []
    for v in cycle:
        block.append(v)
        if v not in neg:
            out.append(block)
            block = []
    return out


def blocks(cycle: Sequence[int], neg: Sequence[int] | frozenset[int]) -> BlockSeq:
    """Cut a smallest-first cycle into blocks after each positive value.

    Negative values must be interior descents of the cycle, which forces
    every block, read in cycle order, to be strictly decreasing; the first
    block is always the singleton holding the cycle minimum.
    """
    cycle = tuple(cycle)
    neg = frozenset(neg)
    if not cycle:
        raise ValueError("empty cycle")
    if min(cycle) != cycle[0]:
        raise ValueError(f"cycle not smallest-first: {cycle}")
    if cycle[0] in neg:
        raise ValueError("the cycle minimum cannot carry a negative sign")
    if cycle[-1] in neg:
        raise ValueError("the last cycle element cannot carry a negative sign")
    out = tuple(tuple(b) for b in _cut(cycle, neg))
    for b in out:
        if any(a <= c for a, c in zip(b, b[1:])):
            raise ValueError(f"negative signs do not follow the descents: block {b}")
    return BlockSeq(blocks=out)


def _theta_partners(cycle: Sequence[int], neg: frozenset[int], partner: list[int]) -> None:
    """Write the edges of ``theta`` on one standard cycle into a partner list.

    ``theta`` reads only the relative order of the values, so it commutes
    with the order-preserving relabelling of the cycle onto 1..len; the
    edges are therefore built on the cycle's own values, with the cycle
    minimum in the role of 1.  The signs must be cycle descents.
    """
    seq = _cut(cycle, neg)
    for block in seq:
        for a, b in zip(block, block[1:]):
            # downline (a, 0)-(b, 1)
            partner[2 * a] = 2 * b + 1
            partner[2 * b + 1] = 2 * a
    for idx in range(1, len(seq)):  # joins block idx to block idx+1 (1-based)
        cur, nxt = seq[idx - 1], seq[idx]
        if idx % 2 == 1:
            a, b = 2 * cur[-1], 2 * nxt[-1]
        else:
            a, b = 2 * cur[0] + 1, 2 * nxt[0] + 1
        partner[a] = b
        partner[b] = a
    last = seq[-1]
    a = 2 * cycle[0] + 1
    b = 2 * last[-1] if len(seq) % 2 == 1 else 2 * last[0] + 1
    partner[a] = b
    partner[b] = a


def theta(sp: SignedPermutation) -> PerfectMatching:
    """Connected Callan matching of a cyclic negative-cdes permutation.

    Step 1 turns each block (b_1 > ... > b_t) into downlines
    (b_j, 0)-(b_{j+1}, 1).  Step 2 joins block k to block k+1 with a
    bottom arc between the block minima for odd k and a top arc between
    the block maxima for even k.  Step 3 closes at (1, 1): a downline (or
    vertical) to the last block's minimum when the block count is odd, a
    top arc to its maximum when even.
    """
    if not is_negative_cdes(sp):
        raise ValueError("negative signs are not all cycle descents")
    cycles = standard_cycles(sp.perm).cycles
    if len(cycles) != 1:
        raise ValueError(f"not cyclic: {len(cycles)} cycles")
    partner = [0] * (2 * sp.n + 2)
    _theta_partners(cycles[0], sp.neg, partner)
    return PerfectMatching(support=tuple(range(1, sp.n + 1)), partner=tuple(partner))


def _unfold(partner: Sequence[int], start: int, seen: list[bool]) -> tuple[list[int], list[int]]:
    """Cycle and negative values that ``theta`` maps to one component.

    ``start`` is the component's smallest index, in the role of 1, of a
    Callan matching of 1..n with partner list ``partner``.  The walk leaves
    start by its bottom vertex and follows its edge; it leaves each index
    it enters by that index's other vertex, marking it in ``seen``, until
    it comes back to the top vertex of start.  Deleting the edge at
    (start, 1) and identifying the two rows leaves that walk as a path from
    start.  Bars go after every path step that crosses an arc (and at the
    end); each bar-delimited block, sorted decreasingly, becomes a run of
    the cycle, with the block minimum positive and the rest negative.
    """
    runs: list[list[int]] = []
    block = [start]
    out, close = 2 * start, 2 * start + 1
    while (key := partner[out]) != close:
        i = key >> 1
        seen[i] = True
        if (key ^ out) & 1 == 0:  # both ends in one row: an arc
            runs.append(block)
            block = [i]
        else:
            block.append(i)
        out = key ^ 1
    runs.append(block)
    cycle: list[int] = []
    neg: list[int] = []
    for run in runs:
        run.sort(reverse=True)
        cycle.extend(run)
        neg.extend(run[:-1])
    return cycle, neg


def theta_inv(m: PerfectMatching) -> SignedPermutation:
    """Inverse of :func:`theta` on connected Callan matchings of 1..l."""
    l = m.n
    if m.support != tuple(range(1, l + 1)) or l == 0:
        raise ValueError("support must be exactly 1..l")
    if not is_callan(m):
        raise ValueError("matching has uplines")
    cycle, neg = _unfold(m.partner, 1, [False] * (l + 1))
    if len(cycle) != l:
        raise ValueError("matching is not connected")
    perm = permutation_from_cycles([cycle], l)
    return SignedPermutation._trusted(perm, frozenset(neg))


def gamma(sp: SignedPermutation) -> PerfectMatching:
    """Callan matching of a negative-cdes permutation, built cyclewise.

    Each standard cycle goes through :func:`theta` on its own values (the
    order-preserving relabelling onto 1..len and back, with signs
    travelling with the values), and the edge sets are united.  Components
    correspond to cycles and vertical lines to fixed points.
    """
    if not is_negative_cdes(sp):
        raise ValueError("negative signs are not all cycle descents")
    partner = [0] * (2 * sp.n + 2)
    for cyc in standard_cycles(sp.perm).cycles:
        _theta_partners(cyc, sp.neg, partner)
    return PerfectMatching(support=tuple(range(1, sp.n + 1)), partner=tuple(partner))


def gamma_inv(m: PerfectMatching) -> SignedPermutation:
    """Inverse of :func:`gamma` on Callan matchings of 1..n.

    Each component, found from its smallest index, is unfolded on its own
    values by the inverse of :func:`theta`.
    """
    n = m.n
    if m.support != tuple(range(1, n + 1)):
        raise ValueError("support must be exactly 1..n")
    if not is_callan(m):
        raise ValueError("matching has uplines")
    cycles: list[list[int]] = []
    neg: list[int] = []
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if not seen[start]:
            cycle, cycle_neg = _unfold(m.partner, start, seen)
            cycles.append(cycle)
            neg.extend(cycle_neg)
    perm = permutation_from_cycles(cycles, n)
    return SignedPermutation._trusted(perm, frozenset(neg))


# ---------------------------------------------------------------------------
# Notation and JSON.

def format_signed(sp: SignedPermutation) -> str:
    parts = []
    for cyc in standard_cycles(sp.perm).cycles:
        inner = " ".join(f"{v}{'-' if v in sp.neg else '+'}" for v in cyc)
        parts.append(f"({inner})")
    return "".join(parts)


def parse_signed(text: str, n: int | None = None) -> SignedPermutation:
    """Parse signed cycle notation like ``(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)``.

    The grammar is the cycle form of
    :func:`~cycledescent.perms.parse_permutation`, with a sign allowed
    directly after each value; an omitted sign means +.  With ``n`` given,
    missing values are positive fixed points; a bare form must cover 1..n.
    """
    perm, neg = _parse_form(text, n, signed=True)
    return SignedPermutation(perm=perm, neg=frozenset(neg))


def signed_to_json_dict(sp: SignedPermutation) -> dict:
    return {
        "n": sp.n,
        "one_line": list(sp.perm.word),
        "neg": sorted(sp.neg),
    }


def signed_from_json_dict(data: dict) -> SignedPermutation:
    try:
        one_line, negatives = data["one_line"], data["neg"]
        if not isinstance(one_line, list) or not isinstance(negatives, list):
            raise ValueError("signed permutation JSON 'one_line' and 'neg' must be lists")
        word, neg = tuple(one_line), frozenset(negatives)
        n = data.get("n", len(word))
    except (TypeError, KeyError) as exc:
        raise ValueError(f"signed permutation JSON needs 'one_line' and 'neg': {exc}") from None
    if n != len(word):
        raise ValueError(f"declared n={n} but one_line has length {len(word)}")
    signed = SignedPermutation(perm=Permutation(word), neg=neg)
    # checked last, so that every input refused for another reason keeps its message
    if type(n) is not int:
        raise ValueError("signed permutation JSON: 'n' and the 'neg' values must be integers")
    return signed
