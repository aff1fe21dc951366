"""
Permutations of [n] = {1, ..., n} and their cycle statistics.

Conventions used throughout the package:

- Everything is 1-indexed.  A permutation is stored in one-line notation as
  a tuple ``word`` of length n with ``word[i-1] = pi(i)``; the one-line word
  is the canonical form, cycle decompositions are derived views.
- The *standard cycle decomposition* writes every cycle with its smallest
  element first and orders the cycles by increasing minima, e.g. the word
  3142765 decomposes as (1 3 4 2)(5 7)(6).
- An *excedance* is a position i with pi(i) > i, a *fixed point* one with
  pi(i) = i.  A *cycle descent* is a cycle element c_j, at an interior
  position 1 < j < len(cycle) of its standard cycle, with c_j > c_{j+1};
  cycles of length 1 or 2 contribute none.  For every permutation
  exc + cyc + cdes = n.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Sequence

from ._records import FrozenRecord, set_field

__all__ = [
    "Permutation",
    "CycleDecomposition",
    "StatRecord",
    "Word",
    "parse_permutation",
    "standard_cycles",
    "cycle_string",
    "statistics",
    "inverse",
    "red",
    "hat",
    "permutation_from_cycles",
    "enumerate_permutations",
    "FAMILIES",
]

# A word is a sequence of pairwise distinct positive integers, not
# necessarily 1..k (for example a cycle read off a larger permutation).
Word = tuple[int, ...]


class Permutation(FrozenRecord):
    """A permutation of [n] in one-line notation; ``word[i-1] = pi(i)``.

    The public constructor validates its word.  Code in this package that
    has already proven a word to be a permutation builds it with
    :meth:`_trusted` instead.  The word is all it holds: the standard
    cycles, the statistics, the flattening and the last top-descent are
    read off one cycle walk of the word, ``_walk_word``, at each call of
    their accessors.
    """

    __slots__ = __match_args__ = ("word",)
    word: tuple[int, ...]

    def __init__(self, word: tuple[int, ...]) -> None:
        word = tuple(word)
        set_field(self, "word", word)
        n = len(word)
        # a value that only equals an integer (3.0, True) names no position
        ints = all(type(v) is int for v in word)
        if not (ints and sorted(word) == list(range(1, n + 1))):
            raise ValueError(f"not a permutation of 1..{n}: {word}")

    @classmethod
    def _trusted(cls, word: tuple[int, ...]) -> Permutation:
        """Wrap a tuple already known to be a permutation of 1..len(word)."""
        p = object.__new__(cls)
        set_field(p, "word", word)
        return p

    @property
    def n(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.word)

    def __repr__(self) -> str:
        return f"Permutation({self.word!r})"


class CycleDecomposition(FrozenRecord):
    """Disjoint cycles, each smallest-first, ordered by increasing minima."""

    __slots__ = __match_args__ = ("cycles",)
    cycles: tuple[tuple[int, ...], ...]

    def __init__(self, cycles: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "cycles", cycles)
        try:
            cycles = tuple(tuple(c) for c in self.cycles)
            set_field(self, "cycles", cycles)
            seen: set[int] = set()
            prev_min = 0
            for cyc in cycles:
                if not cyc:
                    raise ValueError("empty cycle")
                if min(cyc) != cyc[0]:
                    raise ValueError(f"cycle not smallest-first: {cyc}")
                if cyc[0] <= prev_min:
                    raise ValueError("cycle minima not strictly increasing")
                prev_min = cyc[0]
                for v in cyc:
                    if v < 1:
                        raise ValueError(f"cycle element out of range: {v}")
                    if v in seen:
                        raise ValueError(f"element repeated across cycles: {v}")
                    seen.add(v)
        except TypeError:
            # an element that does not compare with an int ('a', None) fails above
            raise ValueError(f"cycle elements must be integers: {self.cycles}") from None
        # a value that only equals an integer (2.0, True) names no element
        if not all(type(v) is int for v in seen):
            raise ValueError(f"cycle elements must be integers: {self.cycles}")

    @classmethod
    def _trusted(cls, cycles: tuple[tuple[int, ...], ...]) -> CycleDecomposition:
        """Wrap cycles already known to be in standard form."""
        d = object.__new__(cls)
        set_field(d, "cycles", cycles)
        return d

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for cyc in self.cycles for v in cyc)

    def to_permutation(self) -> Permutation:
        """Rebuild the permutation; the support must be exactly 1..n."""
        support = self.support
        n = len(support)
        if support != frozenset(range(1, n + 1)):
            raise ValueError("support is not a full interval 1..n")
        return permutation_from_cycles(self.cycles, n)

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in self.cycles)


class StatRecord(FrozenRecord):
    """Classical statistics of one permutation.

    ``inv1`` is the position of the value 1, i.e. pi^{-1}(1).  ``cdes_set``
    collects the cycle-descent elements themselves (not their positions).
    """

    __slots__ = __match_args__ = ("exc", "fix", "cyc", "cdes", "cdes_set", "inv1")
    exc: int
    fix: int
    cyc: int
    cdes: int
    cdes_set: frozenset[int]
    inv1: int

    def __init__(
        self, exc: int, fix: int, cyc: int, cdes: int, cdes_set: frozenset[int], inv1: int
    ) -> None:
        set_field(self, "exc", exc)
        set_field(self, "fix", fix)
        set_field(self, "cyc", cyc)
        set_field(self, "cdes", cdes)
        set_field(self, "cdes_set", cdes_set)
        set_field(self, "inv1", inv1)


# Cycle notation, signed or not.  A form is a bare one-line word or one or
# more ( token (sep token)* ) groups; sep is commas and/or whitespace, and a
# token is decimal digits, optionally followed directly by + or -.
_TOKEN = r"[0-9]+[+-]?"
_BODY = rf"{_TOKEN}(?:[\s,]+{_TOKEN})*"
_FORM = re.compile(rf"\s*(?:{_BODY}|(?:\(\s*{_BODY}\s*\)\s*)+)\s*")
_NEGATIVE = re.compile(r"([0-9]+)-")
_COMMAS_AND_SIGNS = str.maketrans(",+-", "   ")


def _parse_form(text: str, n: int | None, signed: bool) -> tuple[Permutation, list[int]]:
    """Tokenize either notation into a permutation and its negative values.

    Unsigned text may carry no sign; signed text must be in cycle form.
    Without ``n`` the values cover 1..max only if there are exactly max of
    them, which is checked before anything of size max is built; with
    ``n``, values missing from the cycles become fixed points.
    """
    kind = "signed permutation" if signed else "permutation"
    if not text.strip():
        raise ValueError(f"empty {kind} text")
    if not _FORM.fullmatch(text):
        raise ValueError(f"malformed {kind} text: {text[:60]!r}")
    if not signed and ("+" in text or "-" in text):
        raise ValueError(f"signs are not allowed in permutation text: {text[:60]!r}")
    if "(" not in text:
        if signed:
            raise ValueError("signed notation needs cycles in parentheses")
        word = tuple(map(int, text.translate(_COMMAS_AND_SIGNS).split()))
        if n is not None and len(word) != n:
            raise ValueError(f"one-line word has length {len(word)}, expected {n}")
        return Permutation(word), []
    cycles = [
        list(map(int, chunk.partition("(")[2].translate(_COMMAS_AND_SIGNS).split()))
        for chunk in text.split(")")[:-1]
    ]
    size = sum(map(len, cycles))
    top = max(map(max, cycles))
    if n is None:
        if top != size:
            raise ValueError(f"cycles do not cover 1..{top} exactly once: {size} values")
        n = size
    elif top > n:
        raise ValueError(f"element {top} above size {n}")
    else:
        seen = set(itertools.chain.from_iterable(cycles))
        cycles.extend([v] for v in range(1, n + 1) if v not in seen)
    neg = [int(v) for v in _NEGATIVE.findall(text)] if signed else []
    return permutation_from_cycles(cycles, n), neg


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse one-line notation ("3 1 4 2") or cycle notation ("(1 3 4 2)(5 7)(6)").

    Separators inside a form are whitespace or commas, and signs are
    refused.  Cycle notation may omit fixed points only when the total size
    ``n`` is supplied; a bare cycle form must cover 1..n on its own.
    """
    return _parse_form(text, n, signed=False)[0]


def permutation_from_cycles(cycles: Iterable[Sequence[int]], n: int) -> Permutation:
    """Build a permutation of [n] from disjoint cycles (any rotation per cycle).

    The cycles must cover 1..n exactly once; anything else raises
    ValueError.  This check is what lets the maps that build their image
    from cycles (``theta_inv``, ``gamma_inv``, the parsers, the fixed sets
    of ``involutions``) return a proven permutation without sorting it
    again.  ``psi``, ``varphi`` and ``phi_map`` do not call it: each
    re-points a few entries of a copy of their input's word along cycles
    cut from its own.
    """
    word = [0] * n
    count = 0
    for cyc in cycles:
        if not cyc:
            raise ValueError("empty cycle")
        try:
            if min(cyc) < 1 or max(cyc) > n:
                raise ValueError(f"cycle element outside 1..{n}: {tuple(cyc)}")
            for a, b in zip(cyc, cyc[1:]):
                word[a - 1] = b
            word[cyc[-1] - 1] = cyc[0]
        except TypeError:
            # 'a' does not compare with an int, and 2.0 indexes no slot
            raise ValueError(f"cycle elements must be integers: {cyc!r}") from None
        count += len(cyc)
    # n in-range elements leave no slot empty only if they are distinct
    if count != n or 0 in word:
        uncovered = [i + 1 for i, v in enumerate(word) if v == 0]
        raise ValueError(
            f"cycles do not cover 1..{n} exactly once: {count} elements,"
            f" missing {uncovered}"
        )
    # every element is also a value of the word; True would fill a slot
    if not {int}.issuperset(map(type, word)):
        raise ValueError(
            f"cycle elements must be integers: {[v for v in word if type(v) is not int]}"
        )
    return Permutation._trusted(tuple(word))


def _walk_word(
    word: tuple[int, ...]
) -> tuple[tuple[Word, ...], int, int, list[int], Word, int | None]:
    """Standard cycles, exc, fix, cycle-descent elements, flattening and
    last top-descent of a permutation word, in one walk, as plain data.

    Following pi from each cycle minimum c_1: c_1 is an excedance unless it
    is fixed; every later c_j with pi(c_j) > c_j is an excedance, and with
    c_1 < pi(c_j) < c_j an interior cycle descent; the last element, whose
    image is c_1, is neither.  The walk reads the flattening in order: its
    descents are the cycle descents and the cycle ends above the next
    cycle's minimum, and the last of them is the last top-descent.

    The word must be a permutation of 1..len(word); nothing is checked.
    Each accessor below, and each public map of ``involutions`` and
    ``bijections``, walks its input once with it.  The walk of S_n in
    ``verify`` calls this core directly and hands its cycles and
    top-descent to the cores of ``involutions``, so no object of that walk
    builds a ``StatRecord`` or a ``CycleDecomposition``.
    """
    n = len(word)
    seen = [False] * (n + 1)
    flat: list[int] = []
    cycles: list[Word] = []
    exc = fix = 0
    cdes: list[int] = []
    top = None
    for start in range(1, n + 1):
        if seen[start]:
            continue
        if flat and flat[-1] > start:
            top = flat[-1]
        first = len(flat)
        flat.append(start)
        v = word[start - 1]
        if v == start:
            fix += 1
            cycles.append((start,))
            continue
        exc += 1
        while v != start:
            seen[v] = True
            flat.append(v)
            nxt = word[v - 1]
            if nxt > v:
                exc += 1
            elif nxt != start:
                cdes.append(v)
                top = v
            v = nxt
        cycles.append(tuple(flat[first:]))
    return tuple(cycles), exc, fix, cdes, tuple(flat), top


def standard_cycles(p: Permutation) -> CycleDecomposition:
    """Standard cycle decomposition: smallest-first cycles, increasing minima."""
    return CycleDecomposition._trusted(_walk_word(p.word)[0])


def cycle_string(p: Permutation) -> str:
    return str(standard_cycles(p))


def statistics(p: Permutation) -> StatRecord:
    return _stat_record(*_walk_word(p.word)[:4])


def _stat_record(cycles: tuple[Word, ...], exc: int, fix: int, cdes: list[int]) -> StatRecord:
    """The statistics read off the first four values of one ``_walk_word``."""
    return StatRecord(
        exc=exc,
        fix=fix,
        cyc=len(cycles),
        cdes=len(cdes),
        cdes_set=frozenset(cdes),
        inv1=cycles[0][-1] if cycles else 0,
    )


def inverse(p: Permutation) -> Permutation:
    word = [0] * p.n
    for i, v in enumerate(p.word, start=1):
        word[v - 1] = i
    return Permutation._trusted(tuple(word))


def red(entries: Sequence[int]) -> Permutation:
    """Order-isomorphic relabelling of a word with distinct entries onto 1..k.

    >>> red((4, 6, 3)).word
    (2, 3, 1)
    """
    if len(set(entries)) != len(entries):
        raise ValueError(f"duplicate entries in word: {entries}")
    rank = {v: j for j, v in enumerate(sorted(entries), start=1)}
    return Permutation._trusted(tuple(rank[v] for v in entries))


def hat(p: Permutation) -> Word:
    """Flattening of the standard cycle decomposition (parentheses erased)."""
    return _walk_word(p.word)[4]


# ---------------------------------------------------------------------------
# Enumeration streams.  All streams are deterministic and yield one-line
# words in lexicographic order, which keeps exhaustive checks and JSON dumps
# reproducible.

FAMILIES = (
    "all",
    "one_at_i",
    "derangements",
    "derangements_one_at_i",
)


def _all_perms(n: int) -> Iterator[Permutation]:
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation._trusted(word)


def _one_at(n: int, i: int) -> Iterator[Permutation]:
    rest = [v for v in range(1, n + 1) if v != 1]
    for tail in itertools.permutations(rest):
        yield Permutation._trusted(tail[: i - 1] + (1,) + tail[i - 1 :])


def _is_derangement(p: Permutation) -> bool:
    return all(v != i for i, v in enumerate(p.word, start=1))


def enumerate_permutations(
    family: str, n: int, i: int | None = None
) -> Iterator[Permutation]:
    """Stream a permutation family in lexicographic one-line order.

    Families: ``all``; ``one_at_i`` (pi(i) = 1); ``derangements``;
    ``derangements_one_at_i``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    if n < 0:
        raise ValueError("negative size")
    needs_i = family.endswith("_i")
    if needs_i:
        if n == 0:
            raise ValueError("family requires the value 1 but n = 0")
        if i is None:
            raise ValueError(f"family {family!r} requires an index")
        if not 1 <= i <= n:
            raise ValueError(f"index out of range: i={i}, n={n}")
    if family == "all":
        yield from _all_perms(n)
    elif family == "one_at_i":
        yield from _one_at(n, i)
    elif family == "derangements":
        yield from (p for p in _all_perms(n) if _is_derangement(p))
    else:
        yield from (p for p in _one_at(n, i) if _is_derangement(p))
