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

Each of the four maps is a public function that validates its input and
then calls a core that trusts it: ``_gamma_core`` takes standard cycles,
which the public maps read off one ``perms._walk_word`` of the word, and
a negative set and gives a partner list, and ``_gamma_inv_core`` gives
them back from a partner list.  ``theta`` is ``gamma`` on one cycle, so
``theta`` and ``theta_inv`` call the same two cores and add only their
refusals of an object that is not cyclic and of a matching that is not
connected.  The public maps are for input from outside; the bijection
walks of ``verify``, which build their inputs themselves, call the cores.
Likewise ``enumerate_negative_cdes`` wraps a core stream,
``_negative_cdes_core``, that gives each permutation as a word, its
standard cycles and fixed points and the negative sets that sign it, and
the signed walk reads that stream, or the shard of it that holds the words
with one first letter.

Notation: ``(1+ 6- 4- 3+ 2+ 8- 7- 5+)`` writes a signed cycle; an omitted
sign means +.
"""

from __future__ import annotations

from itertools import islice
from math import factorial
from typing import Iterator, Sequence

from . import perms
from ._records import FrozenRecord, set_field
from .caps import check_cap
from .matchings import PerfectMatching, is_callan
from .perms import (
    Permutation,
    Word,
    _parse_form,
    _walk_word,
    permutation_from_cycles,
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


class SignedPermutation(FrozenRecord):
    """A permutation plus the set of values carrying sign -1.

    The public constructor checks that ``neg`` is a set of ints in 1..n.
    Code in this package that has already built a valid ``neg`` wraps it
    with :meth:`_trusted` instead: :func:`enumerate_negative_cdes`, whose
    signs are cycle descents, and :func:`gamma_inv`/:func:`theta_inv`,
    whose signs their shared core reads off the slots of a support
    checked to be 1..n, and ``verify``, which wraps a word and a negative
    set of the core stream only to name a witness.  The cores themselves
    build no signed permutation: the walks of ``verify`` compare what they
    give with the standard cycles and negative sets of that stream.
    """

    __slots__ = __match_args__ = ("perm", "neg")
    perm: Permutation
    neg: frozenset[int]

    def __init__(self, perm: Permutation, neg: frozenset[int]) -> None:
        set_field(self, "perm", perm)
        set_field(self, "neg", frozenset(neg))
        if not self.neg <= frozenset(range(1, self.perm.n + 1)):
            raise ValueError(f"negative values outside 1..{self.perm.n}: {set(self.neg)}")
        # a value that only equals an integer (3.0, True) names no value
        if not all(type(v) is int for v in self.neg):
            raise ValueError(f"negative values must be integers: {set(self.neg)}")

    @classmethod
    def _trusted(cls, perm: Permutation, neg: frozenset[int]) -> SignedPermutation:
        """Wrap a frozenset of ints already known to lie in 1..perm.n."""
        s = object.__new__(cls)
        set_field(s, "perm", perm)
        set_field(s, "neg", neg)
        return s

    @property
    def n(self) -> int:
        return self.perm.n

    def __str__(self) -> str:
        return format_signed(self)


class BlockSeq(FrozenRecord):
    """Cycle blocks cut after each positive value; blocks are decreasing."""

    __slots__ = __match_args__ = ("blocks",)
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "blocks", blocks)

    def __str__(self) -> str:
        return "|" + "|".join("".join(str(v) for v in b) for b in self.blocks) + "|"


def is_negative_cdes(sp: SignedPermutation) -> bool:
    """True when every negative value is a cycle descent of the permutation."""
    return sp.neg.issubset(_walk_word(sp.perm.word)[3])


def _negative_cdes_cycles(sp: SignedPermutation) -> tuple[Word, ...]:
    """The standard cycles of ``sp`` off one walk of its word, which
    refuses it unless every negative value is a cycle descent."""
    cycles, _, _, cdes, _, _ = _walk_word(sp.perm.word)
    if not sp.neg.issubset(cdes):
        raise ValueError("negative signs are not all cycle descents")
    return cycles


def _negative_cdes_core(
    n: int, flt: str = "all", letter: int | None = None
) -> Iterator[tuple[Word, tuple[Word, ...], int, list[frozenset[int]]]]:
    """The objects of :func:`enumerate_negative_cdes` as plain data, one
    permutation at a time, in its order and with its refusals.

    Each item is a word off ``perms._all_words``, its standard cycles and
    fixed-point count from one ``_walk_word``, and the negative sets that
    sign it, in the order of the stream.  ``enumerate_negative_cdes`` wraps
    each pair of word and set in a ``SignedPermutation``; the signed walk of
    ``verify`` reads them as they are.  With a ``letter`` in 1..n the stream
    is the shard of the words that start with it, the ranks
    [(letter - 1) * (n - 1)!, letter * (n - 1)!) of the lexicographic
    stream, in the same order; the n shards, one after another, are the
    whole stream.  The list of negative sets is built once per shard for
    each set of cycle descents and handed to every permutation of the shard
    with those descents, so a caller reads it and does not change it.
    """
    if flt not in ("all", "derangement"):
        raise ValueError(f"unknown filter: {flt!r}")
    if n < 0:
        raise ValueError("negative size")
    check_cap("signed enumeration", n)
    derangements = flt == "derangement"
    signs: dict[tuple[int, ...], list[frozenset[int]]] = {}  # sorted descents -> their subsets
    words = perms._all_words(n)
    if letter is not None:
        shard = factorial(n - 1)
        words = islice(words, (letter - 1) * shard, letter * shard)
    for word in words:
        cycles, _, fix, cdes, _, _ = _walk_word(word)
        if fix and derangements:
            continue
        descents = tuple(sorted(cdes))
        subsets = signs.get(descents)
        if subsets is None:
            # doubling over the sorted descents: subset k holds descent j
            # exactly when bit j of k is set
            subsets = [frozenset()]
            for d in descents:
                subsets += [s | {d} for s in subsets]
            signs[descents] = subsets
        yield word, cycles, fix, subsets


def enumerate_negative_cdes(
    n: int, flt: str = "all"
) -> Iterator[SignedPermutation]:
    """Stream all (pi, S) with S a subset of the cycle descents of pi.

    ``flt`` is ``all`` or ``derangement``.  Permutations come in
    lexicographic order; for each, sign subsets count up in binary over
    the sorted descent values.
    """
    for word, _, _, subsets in _negative_cdes_core(n, flt):
        p = Permutation._trusted(word)
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

    One pass over the cycle writes every edge, with no block lists: a
    negative value continues its block, so the step from it to the next
    value is a downline, and a positive value closes its block, which
    joins the block before it by the arc of step 2.  The pass keeps only
    the head (maximum) and tail (minimum) of the last closed block and the
    head of the open one.  The first block is the cycle minimum alone.
    """
    it = iter(cycle)
    head = tail = prev = next(it)  # the last closed block, and the value read last
    odd = True  # whether the count k of closed blocks is odd
    top = 0  # head of the open block; 0 (no value) when none is open
    for v in it:
        if top:  # prev is negative: downline (prev, 0)-(v, 1)
            partner[2 * prev] = 2 * v + 1
            partner[2 * v + 1] = 2 * prev
        else:
            top = v
        if v not in neg:
            if odd:  # block k to block k + 1: the minima for odd k, else the maxima
                a, b = 2 * tail, 2 * v
            else:
                a, b = 2 * head + 1, 2 * top + 1
            partner[a] = b
            partner[b] = a
            head, tail, top, odd = top, v, 0, not odd
        prev = v
    # step 3 closes at the minimum's top vertex: to the last block's
    # minimum after an odd count of blocks, else to its maximum
    a = 2 * cycle[0] + 1
    b = 2 * tail if odd else 2 * head + 1
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
    cycles = _negative_cdes_cycles(sp)
    if len(cycles) != 1:
        raise ValueError(f"not cyclic: {len(cycles)} cycles")
    return PerfectMatching(
        support=tuple(range(1, sp.n + 1)), partner=_gamma_core(cycles, sp.neg, sp.n)
    )


def _unfold(
    partner: Sequence[int], start: int, seen: list[bool]
) -> tuple[tuple[int, ...], list[int]]:
    """Cycle and negative values that ``theta`` maps to one component.

    ``start`` is the component's smallest index, in the role of 1, of a
    Callan matching of 1..n with partner list ``partner``.  The walk leaves
    start by its bottom vertex and follows its edge; it leaves each index
    it enters by that index's other vertex, marking it in ``seen``, until
    it comes back to the top vertex of start.  On a partner list that is
    not an involution the walk can miss that vertex; it then stops at the
    first index it enters twice, after at most n steps, and gives what it
    has read.  Deleting the edge at
    (start, 1) and identifying the two rows leaves that walk as a path from
    start.  Bars go after every path step that crosses an arc (and at the
    end); each bar-delimited block, sorted decreasingly, becomes a run of
    the cycle, with the block minimum positive and the rest negative.  The
    walk appends each block to the cycle at the arc that closes it, so no
    list of blocks is kept.  It holds the first index of the open block on
    its own and makes a list only when a second index joins it: a block of
    one index goes into the cycle as it is, positive, and only a longer
    block is sorted.
    """
    cycle: list[int] = []
    neg: list[int] = []
    low, block = start, None  # the open block's first index; its list once it has two
    out, close = 2 * start, 2 * start + 1
    while (key := partner[out]) != close:
        i = key >> 1
        if seen[i]:
            break
        seen[i] = True
        if (key ^ out) & 1:  # between the rows: i joins the open block
            if block is None:
                block = [low, i]
            else:
                block.append(i)
        else:  # both ends in one row: an arc closes the block, and i opens the next
            if block is None:
                cycle.append(low)
            else:
                block.sort(reverse=True)
                cycle += block
                block.pop()  # the block minimum is positive
                neg += block
                block = None
            low = i
        out = key ^ 1
    if block is None:
        cycle.append(low)
    else:
        block.sort(reverse=True)
        cycle += block
        block.pop()
        neg += block
    return tuple(cycle), neg


def theta_inv(m: PerfectMatching) -> SignedPermutation:
    """Inverse of :func:`theta` on connected Callan matchings of 1..l."""
    l = m.n
    if m.support != tuple(range(1, l + 1)) or l == 0:
        raise ValueError("support must be exactly 1..l")
    if not is_callan(m):
        raise ValueError("matching has uplines")
    cycles, neg = _gamma_inv_core(m.partner)
    if len(cycles) != 1:
        raise ValueError("matching is not connected")
    return SignedPermutation._trusted(permutation_from_cycles(cycles, l), neg)


def _gamma_core(
    cycles: Sequence[Sequence[int]], neg: frozenset[int], n: int
) -> tuple[int, ...]:
    """Partner list of ``gamma`` on the standard cycles of a permutation of 1..n."""
    partner = [0] * (2 * n + 2)
    for cyc in cycles:
        _theta_partners(cyc, neg, partner)
    return tuple(partner)


def gamma(sp: SignedPermutation) -> PerfectMatching:
    """Callan matching of a negative-cdes permutation, built cyclewise.

    Each standard cycle goes through :func:`theta` on its own values (the
    order-preserving relabelling onto 1..len and back, with signs
    travelling with the values), and the edge sets are united.  Components
    correspond to cycles and vertical lines to fixed points.
    """
    partner = _gamma_core(_negative_cdes_cycles(sp), sp.neg, sp.n)
    return PerfectMatching(support=tuple(range(1, sp.n + 1)), partner=partner)


def _gamma_inv_core(
    partner: Sequence[int],
) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """Standard cycles and negative set that ``gamma`` maps to a partner list.

    Each component, found from its smallest slot, is unfolded once; the
    cycles come out smallest-first, by increasing minima.
    """
    cycles: list[tuple[int, ...]] = []
    neg: list[int] = []
    seen = [False] * (len(partner) >> 1)
    for start in range(1, len(seen)):
        if not seen[start]:
            cycle, cycle_neg = _unfold(partner, start, seen)
            cycles.append(cycle)
            neg += cycle_neg
    return tuple(cycles), frozenset(neg)


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
    cycles, neg = _gamma_inv_core(m.partner)
    return SignedPermutation._trusted(permutation_from_cycles(cycles, n), neg)


# ---------------------------------------------------------------------------
# Notation and JSON.

def format_signed(sp: SignedPermutation) -> str:
    parts = []
    for cyc in _walk_word(sp.perm.word)[0]:
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
    if not isinstance(data, dict):
        raise ValueError("signed permutation JSON must be an object")
    try:
        one_line, negatives = data["one_line"], data["neg"]
    except KeyError as exc:
        raise ValueError(f"signed permutation JSON needs 'one_line' and 'neg': {exc}") from None
    if not isinstance(one_line, list) or not isinstance(negatives, list):
        raise ValueError("signed permutation JSON 'one_line' and 'neg' must be lists")
    n = data.get("n", len(one_line))
    # an n that is no int is refused by the type check below, never as a length
    if type(n) is int and n != len(one_line):
        raise ValueError(f"declared n={n} but one_line has length {len(one_line)}")
    perm = Permutation(tuple(one_line))
    not_integers = "signed permutation JSON: 'n' and the 'neg' values must be integers"
    # checked once the word holds, so that a bad word keeps its message; a
    # value that only equals an integer (3.0, true), or a list, names no value
    if not all(type(v) is int for v in negatives):
        raise ValueError(not_integers)
    signed = SignedPermutation(perm=perm, neg=frozenset(negatives))
    # checked last, so that every input refused for another reason keeps its message
    if type(n) is not int:
        raise ValueError(not_integers)
    return signed
