"""
Sign-reversing involutions on permutation families.

All maps here preserve the excedance count and flip the parity of the
cycle-descent count (delta of exactly +-1) away from their fixed points,
which is what collapses the signed sums of :mod:`cycledescent.statpolys`
to their closed forms.

Three layers of machinery:

- ``phi_map``: split or merge cycles at the last top-descent of the
  flattened cycle word.  Defined whenever the flattening is not 1 2 .. n.
- ``psi(n, i, .)``: an involution on {pi : pi(i) = 1}.  It applies
  ``phi_map`` when the last top-descent lies outside the cycle containing
  1, and otherwise restructures that first cycle (detach an increasing
  prefix, or splice the last cycle in after the 1).  Its fixed sets have
  size 2^(n-2) for i in {1, n} and are empty for 1 < i < n.
- ``varphi(n, i, .)``: an involution on derangements with pi(i) = 1 whose
  unique fixed point is the cyclic permutation (1, 2, ..., i-1, n, n-1,
  ..., i).  It merges the last cycle into its predecessor, or splits the
  last cycle in two, keyed on whether that cycle is "staircase shaped"
  (an increasing run followed by the decreasing run of all larger
  elements, like the fixed point itself).

Each of the three maps is a public function that checks its arguments and
then calls a core that trusts them: ``_phi_core``, ``_psi_core`` and
``_varphi_core`` read a word, its standard cycles and, for phi and psi, its
last top-descent, and give the image word, the branch tag and the stated
cdes delta; ``_psi_core`` calls ``_phi_core`` on its phi branches.  The
public maps are for input from outside: each reads what its core needs
off one ``perms._walk_word`` of its input and wraps the result in an
``InvolutionOutcome``.  The walk of S_n in ``verify``, which reads the
cycles and the top-descent of every object off that same walk, calls the
cores.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from ._records import FrozenRecord, set_field
from .perms import Permutation, Word, _walk_word, permutation_from_cycles

__all__ = [
    "InvolutionOutcome",
    "last_top_descent",
    "phi_map",
    "psi",
    "psi_fixed_set",
    "m_index",
    "varphi",
    "varphi_fixed_point",
]

# What a core gives: the image word, the branch tag and the stated delta.
_Image = tuple[Word, str, int]


class InvolutionOutcome(FrozenRecord):
    """Image of one involution application plus branch bookkeeping.

    ``case_tag`` records which branch fired: ``fixed``, ``phi-split``,
    ``phi-merge``, ``psi-case1``, ``psi-case2``, ``varphi-merge`` or
    ``varphi-split``.  ``delta_cdes`` is cdes(image) - cdes(input); it is 0
    exactly on fixed points and +-1 otherwise.  Each branch states its own
    value (-1 for a split or ``psi-case1``, +1 for a merge or
    ``psi-case2``) without walking the image; ``verify`` proves the stated
    value against a naive walk of every image up to its size cap.
    """

    __slots__ = __match_args__ = ("image", "case_tag", "delta_cdes")
    image: Permutation
    case_tag: str
    delta_cdes: int

    def __init__(self, image: Permutation, case_tag: str, delta_cdes: int) -> None:
        set_field(self, "image", image)
        set_field(self, "case_tag", case_tag)
        set_field(self, "delta_cdes", delta_cdes)


def _outcome(image: Word, case_tag: str, delta_cdes: int) -> InvolutionOutcome:
    """Wrap what a core gives; its image word is a permutation."""
    return InvolutionOutcome(Permutation._trusted(image), case_tag, delta_cdes)


def last_top_descent(p: Permutation) -> int | None:
    """The value at the last descent of the flattened cycle word, if any.

    Returns the entry a_j itself (not its position) for the last j with
    a_j > a_{j+1} in ``hat(p)``; None when the flattening is increasing.
    """
    return _walk_word(p.word)[5]  # the cycle walk reads the flattening


def _swapped(word: Word, a: int, b: int) -> Word:
    """``word`` with the values at positions a and b exchanged.

    Exchanging pi(a) and pi(b) splits their common cycle in two, or joins
    their two cycles into one; either way the word is still a permutation.
    """
    out = list(word)
    out[a - 1], out[b - 1] = out[b - 1], out[a - 1]
    return tuple(out)


def _rewired(word: Word, *cycles: Sequence[int]) -> Word:
    """``word`` with the entries of the given cycles re-pointed along them.

    The cycles must cover exactly the elements of the cycles of ``word``
    they replace, so the result is still a permutation.
    """
    out = list(word)
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:]):
            out[a - 1] = b
        out[cyc[-1] - 1] = cyc[0]
    return tuple(out)


def _phi_core(word: Word, cycles: tuple[Word, ...], top: int) -> _Image:
    """``phi_map`` of the permutation ``word``, whose standard cycles are
    ``cycles`` and whose last top-descent is ``top``; nothing is checked."""
    for k, cyc in enumerate(cycles):
        if top in cyc:
            break
    if cyc[-1] == top:
        # the last top-descent is never the global last entry, so a
        # following cycle always exists here
        return _swapped(word, top, cycles[k + 1][-1]), "phi-merge", 1
    return _swapped(word, top, cyc[-1]), "phi-split", -1


def phi_map(p: Permutation) -> InvolutionOutcome:
    """Split or merge cycles at the last top-descent.

    If the top-descent value ends its cycle, the following cycle is merged
    onto it (erasing ")(" in the written decomposition); otherwise the
    cycle is split right after the value.  Both moves preserve the
    flattened word, the top-descent itself, and the excedance count, and
    change cdes by exactly one; applying the map twice is the identity.  A
    split leaves the top-descent ending a cycle, so it is no longer a cycle
    descent and cdes falls by one; a merge puts it back inside a cycle and
    cdes rises by one.

    Either move re-points two entries of the word: the top-descent qv
    exchanges its value with the last element of its own cycle (a split)
    or of the following cycle (a merge).
    """
    cycles, _, _, _, _, qv = _walk_word(p.word)
    if qv is None:
        raise ValueError("map undefined: the flattened cycle word is increasing")
    return _outcome(*_phi_core(p.word, cycles, qv))


def _m_index(n: int, first: Word) -> int | None:
    """``m_index`` of a permutation of [n] whose cycle containing 1 is
    ``first``, in one scan of its tail c_1 .. c_l.

    c_1 is below the largest value that c_2 .. c_l leave out unless every
    value above c_1 is among them, so m = 1 then.  When it is, each c_j of
    an increasing run c_1 < ... < c_j has every larger value after it, and
    the first j >= 2 with c_j < c_{j-1} is m: c_{j-1} is larger and not
    after it.  No such j: m is None.
    """
    if len(first) < 2:
        return None  # 1 is fixed: no tail
    c1 = prev = first[1]
    above, m = 0, None  # values above c_1 among c_2 .. c_l; the first descent
    for j in range(2, len(first)):
        c = first[j]
        if c > c1:
            above += 1
        if c < prev and m is None:
            m = j
        prev = c
    return m if above == n - c1 else 1


def m_index(p: Permutation) -> int | None:
    """The least j >= 1 such that, in the cycle (1, c_1, ..., c_l)
    containing 1, c_j is not the largest element once the tail c_{j+1}..
    is removed from consideration; None when no j qualifies."""
    return _m_index(p.n, _walk_word(p.word)[0][0])


def _psi_core(n: int, i: int, word: Word, cycles: tuple[Word, ...], top: int | None) -> _Image:
    """``psi(n, i, .)`` of the permutation ``word`` of [n], which has
    pi(i) = 1, standard cycles ``cycles`` and last top-descent ``top``;
    nothing is checked."""
    if i == 1:
        if top is None:
            return word, "fixed", 0
        return _phi_core(word, cycles, top)

    first = cycles[0]
    if top is not None and top not in first:
        return _phi_core(word, cycles, top)

    m = _m_index(n, first)
    if m is None:
        # increasing-staircase first cycle ending at n, increasing rest:
        # these are exactly the fixed points, and exist only for i = n
        return word, "fixed", 0
    if m >= 2:
        # detach the increasing prefix c_1 .. c_{m-1} as a cycle of its own:
        # 1 now goes to c_m and c_{m-1} back to c_1
        return _swapped(word, 1, first[m - 1]), "psi-case1", -1
    # splice the last cycle into the first, right after the 1: 1 now goes
    # to the last cycle's minimum and its last element where 1 went
    return _swapped(word, 1, cycles[-1][-1]), "psi-case2", 1


def psi(n: int, i: int, p: Permutation) -> InvolutionOutcome:
    """Sign-reversing involution on {pi in S_n : pi(i) = 1}.

    Away from its fixed points each branch re-points two entries of the
    word: the phi branches those of ``phi_map``; ``psi-case1`` exchanges
    pi(1) with pi(c_{m-1}), detaching c_1 .. c_{m-1} from the cycle
    (1, c_1, .., c_l) of 1; ``psi-case2`` exchanges pi(1) with the value at
    the last element of the last cycle, splicing that cycle in after the 1.
    """
    if n < 2:
        raise ValueError("involution defined for n >= 2")
    if p.n != n or not 1 <= i <= n:
        raise ValueError(f"bad arguments: n={n}, i={i}, perm of size {p.n}")
    if p.word[i - 1] != 1:
        raise ValueError(f"{p} does not place the value 1 at position {i}")
    cycles, _, _, _, _, top = _walk_word(p.word)
    return _outcome(*_psi_core(n, i, p.word, cycles, top))


def _consecutive_block_cycles(values: Sequence[int]) -> Iterator[list[tuple[int, ...]]]:
    """All ways to cut a sorted run into consecutive blocks, each block an
    increasing cycle.  2^(len-1) results; the empty run yields one."""
    values = list(values)
    if not values:
        yield []
        return
    gaps = len(values) - 1
    for r in range(gaps + 1):
        for cuts in combinations(range(1, len(values)), r):
            bounds = [0, *cuts, len(values)]
            yield [tuple(values[a:b]) for a, b in zip(bounds, bounds[1:])]


def psi_fixed_set(n: int, i: int) -> frozenset[Permutation]:
    """The exact fixed-point set of ``psi(n, i, .)``.

    Size 2^(n-2) for i = 1 (singleton (1) plus consecutive increasing
    blocks of 2..n) and for i = n (staircase first cycle (1, k, .., n)
    plus consecutive blocks of 2..k-1); empty for interior i.
    """
    if n < 2:
        raise ValueError("fixed sets defined for n >= 2")
    if not 1 <= i <= n:
        raise ValueError(f"index out of range: i={i}, n={n}")
    out: set[Permutation] = set()
    if i == 1:
        for blocks in _consecutive_block_cycles(range(2, n + 1)):
            out.add(permutation_from_cycles([(1,), *blocks], n))
    elif i == n:
        for k in range(2, n + 1):
            staircase = (1, *range(k, n + 1))
            for blocks in _consecutive_block_cycles(range(2, k)):
                out.add(permutation_from_cycles([staircase, *blocks], n))
    return frozenset(out)


# ---------------------------------------------------------------------------
# The involution on derangements with pi(i) = 1.


def _staircase_prefix(seq: Sequence[int]) -> tuple[int, int]:
    """The length of the longest staircase-shaped prefix of ``seq`` and the
    0-based position of its maximum, in one left-to-right scan.

    A sequence of distinct values is staircase shaped when it has length
    s >= 2 and is order-isomorphic to 1, 2, .., r-1, s, s-1, .., r: it
    increases up to its maximum and decreases from it on, and the entry
    before the maximum, if any, is below every entry after it.  The shape
    is hereditary (every prefix of length >= 2 of such a sequence has it),
    so the scan stops at the first entry that breaks it: an ascent once the
    decreasing run has begun, or a descent to below the entry before the
    maximum.  A sequence shorter than 2 has no such prefix; its own length
    is returned.
    """
    top = 0
    for j in range(1, len(seq)):
        if seq[j - 1] < seq[j]:
            if top < j - 1:  # an ascent after the decreasing run began
                return j, top
            top = j
        elif top and seq[j] < seq[top - 1]:
            return j, top
    return len(seq), top


def varphi_fixed_point(n: int, i: int) -> Permutation:
    """The cyclic derangement (1, 2, ..., i-1, n, n-1, ..., i)."""
    if not 2 <= i <= n:
        raise ValueError(f"index out of range: i={i}, n={n}")
    cycle = tuple(range(1, i)) + tuple(range(n, i - 1, -1))
    return permutation_from_cycles([cycle], n)


def _varphi_core(word: Word, cycles: tuple[Word, ...]) -> _Image:
    """``varphi`` of the derangement ``word``, whose standard cycles are
    ``cycles``; nothing is checked.

    One scan of the last cycle gives its longest staircase-shaped prefix and
    the position of that prefix's maximum.  The cycle starts at its minimum,
    so its prefixes of length 2 and 3 always qualify.  When the prefix is
    the whole cycle, the cycle is merged (or is the fixed point); otherwise
    it is split after the prefix, which is then the longest staircase-shaped
    proper prefix.
    """
    last = cycles[-1]
    cut, top = _staircase_prefix(last)

    if cut == len(last):
        if len(cycles) == 1:
            return word, "fixed", 0
        prev = cycles[-2]
        if prev[1] < last[top - 1]:
            merged = (prev[0], *last, *prev[1:])
        else:
            merged = (
                prev[0],
                *last[: top - 1],
                *last[top:],
                last[top - 1],
                *prev[1:],
            )
        return _rewired(word, merged), "varphi-merge", 1

    after = last[cut]
    head = (last[0], *last[cut:])
    if after < last[top - 1]:
        rest = last[1:cut]
    else:
        rest = (*last[1:top], last[cut - 1], *last[top : cut - 1])
    return _rewired(word, head, rest), "varphi-split", -1


def varphi(n: int, i: int, p: Permutation) -> InvolutionOutcome:
    """Sign-reversing involution on derangements with pi(i) = 1.

    Branches on the last cycle C of the standard decomposition:

    - C staircase shaped and the only cycle: p is the unique fixed point.
    - C staircase shaped, k >= 2 cycles: merge C into the cycle before it,
      inserted after that cycle's first element; when the predecessor's
      second element is larger than the element preceding C's maximum,
      that element is moved behind C's tail first.
    - otherwise: split C at its longest staircase-shaped proper prefix
      into two cycles (the mirror images of the two merge variants).

    A merge re-points the entries of the merged cycle and a split those of
    C; the new cycles are slices of the old, and every other entry of the
    word stays as it is.
    """
    if p.n != n:
        raise ValueError(f"size mismatch: n={n}, perm of size {p.n}")
    if not 2 <= i <= n:
        raise ValueError(f"index out of range: i={i}, n={n}")
    if p.word[i - 1] != 1:
        raise ValueError(f"{p} does not place the value 1 at position {i}")
    cycles, _, fix, _, _, _ = _walk_word(p.word)
    if fix:
        raise ValueError(f"{p} is not a derangement")
    return _outcome(*_varphi_core(p.word, cycles))
