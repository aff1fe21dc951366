"""
Exhaustive verification suites behind the ``verify`` CLI command.

Each check gives its first failure at a size n, as a witness text, or
None when it holds; a suite is a set of checks, each capped by the entry
of ``caps.CAPS`` that bounds what it reads, so that the whole battery
stays desk-scale.  The suite layout (the suites, their check ids in run
order, each check's least size, cap entry and walks) and the default
seed are plain data in ``caps``, which the CLI reads for its help
without loading this module.  Here each check id gets its fold and
nothing else: a run reads the sizes, caps and walks of its checks off
that layout and ``CAPS`` as they stand when it starts.  Every check is a
fold: it reads the records that one walk of its size keeps for every
check that reads them.  The brute-force checks of one size (closed forms,
recurrences, cdes polynomials, signed identities) share the tally of S_n
that ``statpolys`` keeps, the involution checks one walk of S_n, and the
bijection checks one walk of the signed objects and one of the Callan
matchings; the sequence cross-check and the ring axioms read no
walk.  Each walk of a size is one task, but for the signed walk of the
run's largest size, which is one task per first letter of its words, so
tasks are independent and a run can fan out over a process pool, largest
sizes first; every task returns its records, the caller merges the shards
of the signed walk in the order of its stream, and folds each check off
the records.

Informational checks never fail: they return a note text, which goes to
the summary's notes (used for the downline formula, whose textbook global
form is known not to survive beyond connected matchings).

The process pool, and with it ``multiprocessing``, is imported only when a
run starts more than one worker; serial runs, and plans of at most one
task, never load it.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter, defaultdict
from functools import lru_cache, partial
from itertools import combinations, compress, islice, permutations
from math import factorial
from operator import eq
from typing import Callable, Iterable

from . import bijections as bj
from . import involutions as iv
from . import matchings as mt
from . import perms
from . import statpolys as sp
from ._records import Record
from .caps import CHECK_LAYOUT, DEFAULT_SEED, SUITES, suite_cap, verify_cap
from .perms import Permutation
from .poly import MultiPoly

__all__ = [
    "CheckOutcome",
    "VerificationSummary",
    "SUITES",
    "suite_cap",
    "run_verification",
    "DEFAULT_SEED",
]


class CheckOutcome(Record):
    __slots__ = __match_args__ = ("check_id", "n", "detail")
    check_id: str
    n: int
    detail: str

    def __init__(self, check_id: str, n: int, detail: str) -> None:
        self.check_id = check_id
        self.n = n
        self.detail = detail


class VerificationSummary(Record):
    """The outcome of a run; ``failures`` and ``notes`` default to fresh lists."""

    __slots__ = __match_args__ = ("suite", "n_lo", "n_hi", "checks_run", "failures", "notes")
    suite: str
    n_lo: int
    n_hi: int
    checks_run: int
    failures: list[CheckOutcome]
    notes: list[CheckOutcome]

    def __init__(
        self,
        suite: str,
        n_lo: int,
        n_hi: int,
        checks_run: int,
        failures: list[CheckOutcome] | None = None,
        notes: list[CheckOutcome] | None = None,
    ) -> None:
        self.suite = suite
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.checks_run = checks_run
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

    @property
    def exit_code(self) -> int:
        return 0 if not self.failures else 1

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n_range": [self.n_lo, self.n_hi],
            "checks_run": self.checks_run,
            "failures": [
                {"check": f.check_id, "n": f.n, "witness": f.detail}
                for f in self.failures
            ],
            "notes": [
                {"check": r.check_id, "n": r.n, "text": r.detail} for r in self.notes
            ],
        }


# ---------------------------------------------------------------------------
# Folds off the tally of S_n, the record of the walk ``tally``: they hand it
# to the cores of ``statpolys``, which alone read its keys.  The sequence
# cross-check and the ring axioms read no walk.


def _fold_closed_form(
    n: int, seed: int, tally: sp.Tally, derangements: bool = False
) -> str | None:
    if derangements and not sp._statistic_poly(tally, 1, derangements=True).is_zero():
        return "i=1: expected the empty sum"
    for i in range(2 if derangements else 1, n + 1):
        brute = sp._statistic_poly(tally, i, derangements).substitute(y=-1, q=1)
        closed = sp.alternating_closed_form(n, i, derangements)
        if brute != closed:
            return f"i={i}: enumerated {brute}, closed form {closed}"
    return None


def _fold_recurrence(
    n: int, seed: int, tally: sp.Tally, derangements: bool = False
) -> str | None:
    table = sp.recurrence_table(n, derangements)
    for i in range(1, n + 1):
        brute = sp._statistic_poly(tally, i, derangements).substitute(q=1, t=1)
        if table.entries[i] != brute:
            return f"i={i}: recurrence {table.entries[i]}, enumerated {brute}"
    return None


def _fold_cdes_poly(
    n: int, seed: int, tally: sp.Tally, derangements: bool = False
) -> str | None:
    rec = sp.cdes_distribution_rec(n, derangements)
    brute = sp._cdes_distribution_brute(tally, derangements)
    if rec != brute:
        return f"recurrence {rec}, enumerated {brute}"
    return None


def _check_sequence_cross(n: int, seed: int) -> str | None:
    a = sp.klazar_count(n)
    b = sp.cdes_distribution_rec(n).substitute(y=2).as_int()
    if a != b:
        return f"integer recurrence {a}, polynomial recurrence at y=2 gives {b}"
    c = sp.b20_count(n)
    d = sp.cdes_distribution_rec(n, derangements=True).substitute(y=2).as_int()
    if c != d:
        return f"derangement recurrences disagree: {c} vs {d}"
    return None


def _fold_identity(n: int, seed: int, tally: sp.Tally, identity_id: str) -> str | None:
    report = sp._identity_check(tally, identity_id, n)
    if report.passed:
        return None
    detail = f"lhs {report.lhs}, rhs {report.rhs}"
    if report.witness:
        detail += f"; witness {report.witness}"
    return detail


def _random_poly(rng: random.Random) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 3) for _ in range(4))
        terms[exps] = terms.get(exps, 0) + rng.randint(-5, 5)
    return MultiPoly(terms)


def _check_poly_axioms(n: int, seed: int) -> str | None:
    rng = random.Random(seed)
    for trial in range(60):
        a, b, c = (_random_poly(rng) for _ in range(3))
        if (a + b) + c != a + (b + c) or a * b != b * a:
            return f"trial {trial}: ring axiom broken"
        if a * (b + c) != a * b + a * c:
            return f"trial {trial}: distributivity broken"
        binding = {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)}
        lhs = (a * b + c).substitute(**binding)
        rhs = a.substitute(**binding) * b.substitute(**binding) + c.substitute(**binding)
        if lhs != rhs:
            return f"trial {trial}: substitution does not commute"
    return None


# ---------------------------------------------------------------------------
# Involution laws from one walk of S_n per size.
#
# Pass 1 (``_walk_perms``) reads S_n as plain words, off the stream
# ``perms._all_words``, and keys every object by its lexicographic rank, its
# index in the walk.  It records the exc and cdes of each object, the
# position of 1, the rank of its flattening and its last top-descent, all
# read off one naive cycle walk of its word (``perms._walk_word``), which
# gives plain data: no ``Permutation`` is built for an object or an image.
# The walk hands the word, its standard cycles and its top-descent to the
# trusted cores of ``psi``, ``varphi`` and ``phi_map``, which skip the
# argument checks the public maps keep for outside input and give an image
# word, a branch tag and a delta.  For each map whose domain holds the
# object it records the rank of the image word, the branch tag and the cdes
# delta the branch states, as stated.  A rank is two lookups, of the word's
# head and tail in tables built once per n and bound once per walk; a word
# that is not a permutation, or no tuple, has none, so an image the cores
# build wrongly can alias no object.  A tag that no map gives pairs with no
# tag; one that is no str, which may not even hash (a list), is looked up as
# 0, which no map gives.  Where ``psi`` takes a phi branch, its result is
# the phi core's for that object, so phi's record is a copy of psi's: the
# split/merge image is built, ranked and its tag looked up once per object
# of phi's domain.
#
# An image is itself an object of S_n with a record of its own, so each fold
# reads the involution law, exc preservation and the tag pairing off the
# records, and no image is mapped or walked again.  psi-involution and
# varphi-involution share one law pass (``_law_pass``) over the records of
# their map, which keeps, for each i (the position of 1), the first law
# failure, the first false claim (a stated delta that is not the walked
# one) and the fixed ranks; what differs between the two maps is data they
# bind it with: the pair-code table, the texts of a bad fixed point and of a
# broken pairing, and whether a fixed point must map to itself.  The signed
# sums of (-1)^cdes x^exc that psi and varphi collapse to the weight of
# their fixed points are one count of the same exc and cdes records by i.
# Each fold then goes through i in increasing order: the law failure of an
# i, then its own fixed-set, size and signed-sum checks; the false claim of
# the least i comes last, only once every law has held.  These are the
# order and the texts of a check that walks the objects with pi(i) = 1 one
# i at a time and maps every image back; a witness is named by its rank,
# the index of its word in the stream ``perms._all_words`` (``_unrank``).
# So these checks read no tally of ``statpolys``, and the walk is the one
# pass over S_n they make.

_PHI_PAIRS = {"phi-split": "phi-merge", "phi-merge": "phi-split"}
_PSI_PAIRS = {**_PHI_PAIRS, "psi-case1": "psi-case2", "psi-case2": "psi-case1"}
_VARPHI_PAIRS = {"varphi-merge": "varphi-split", "varphi-split": "varphi-merge"}
_TAGS = ("fixed", *_PSI_PAIRS, *_VARPHI_PAIRS, "unknown")  # "unknown": any other tag
_TAG_CODE = {tag: code for code, tag in enumerate(_TAGS, start=1)}  # 0: no record
_FIXED = _TAG_CODE["fixed"]
_PHI_CODES = (_TAG_CODE["phi-split"], _TAG_CODE["phi-merge"])
_PARITY = bytes(v & 1 for v in range(256))  # cdes -> cdes mod 2, for translate


def _code_pairs(pairs: dict[str, str]) -> bytes:
    """The code of each tag's partner, indexed by the tag's code; 0 for none."""
    table = bytearray(len(_TAGS) + 1)
    for a, b in pairs.items():
        table[_TAG_CODE[a]] = _TAG_CODE[b]
    return bytes(table)


_PHI_PAIR_CODES = _code_pairs(_PHI_PAIRS)
# what the law pass of psi and of varphi is bound with: the pair-code table,
# the law texts of a bad fixed point and of a broken pairing (formatted with
# the two tags), and whether a fixed point must map to itself
_PSI_LAWS = (_code_pairs(_PSI_PAIRS), "bad fixed point", "branch {} paired with {}", True)
_VARPHI_LAWS = (
    _code_pairs(_VARPHI_PAIRS), "fixed point with cdes delta", "branch pairing broken", False
)


@lru_cache(maxsize=None)
def _ranker(n: int) -> Callable[[tuple[int, ...]], int]:
    """The lexicographic rank of a word in S_n, as a function of the word;
    -1 for any word that is not a permutation of 1..n.

    The rank of a word is the rank of its head w[:h], h = n // 2, among the
    h-arrangements of 1..n, times (n - h)!, plus the rank of its tail w[h:]
    among the arrangements of its own values.  Each head maps to its scaled
    rank and the table of tails that hold exactly the values it leaves out,
    so a word that is not a permutation, of any length, finds no tail.  At
    n = 8 the heads and the tails number 1,680 each.
    """
    h = n // 2
    values = range(1, n + 1)
    tails = {
        frozenset(rest): {w: r for r, w in enumerate(permutations(rest))}
        for rest in combinations(values, n - h)
    }
    scale = factorial(n - h)
    heads = {
        w: (r * scale, tails[frozenset(values).difference(w)])
        for r, w in enumerate(permutations(values, h))
    }

    def rank(word: tuple[int, ...]) -> int:
        try:
            base, tail_ranks = heads[word[:h]]
            return base + tail_ranks[word[h:]]
        except (KeyError, TypeError):  # TypeError: a word that is no tuple
            return -1

    return rank


def _unrank(r: int, n: int) -> Permutation:
    """The word of rank r in S_n, the r-th of the walk's stream
    ``perms._all_words``; used only to name a witness."""
    return Permutation._trusted(next(islice(perms._all_words(n), r, None)))


class _MapRecords:
    """What one map gave each object of its domain, indexed by rank."""

    def __init__(self, size: int) -> None:
        self.img = array("i", [-1]) * size  # rank of the image; -1 for none or another size
        self.tag = bytearray(size)  # _TAG_CODE of the branch; 0 outside the domain
        self.delta = [0] * size  # the stated cdes delta, of any size


class _PermWalk:
    """Pass-1 records of one walk of S_n, indexed by rank."""

    def __init__(self, size: int) -> None:
        self.exc, self.cdes, self.pos1 = bytearray(size), bytearray(size), bytearray(size)
        self.hat_rank = array("i", [0]) * size  # rank of the flattening
        self.top = bytearray(size)  # the last top-descent; 0 for none
        self.psi, self.varphi, self.phi = (_MapRecords(size) for _ in range(3))


def _walk_perms(n: int) -> _PermWalk:
    """Pass 1: one naive walk of the words of S_n, calling the cores of
    ``psi`` (n >= 2), ``varphi`` (derangements) and ``phi_map`` (a
    top-descent exists) once per object."""
    w = _PermWalk(factorial(n))
    rank, code = _ranker(n), defaultdict(lambda: len(_TAGS), _TAG_CODE)
    exc, cdes, pos1, hat_rank, tops = w.exc, w.cdes, w.pos1, w.hat_rank, w.top
    psi_img, psi_tag, psi_delta = w.psi.img, w.psi.tag, w.psi.delta
    varphi_img, varphi_tag, varphi_delta = w.varphi.img, w.varphi.tag, w.varphi.delta
    phi_img, phi_tag, phi_delta = w.phi.img, w.phi.tag, w.phi.delta
    # read off their modules once per walk, so that a test can patch them
    walk, psi, varphi, phi = perms._walk_word, iv._psi_core, iv._varphi_core, iv._phi_core
    for k, word in enumerate(perms._all_words(n)):
        cycles, e, fix, cd, flat, top = walk(word)
        i = cycles[0][-1]  # the last element of the cycle of 1 goes to 1
        exc[k], cdes[k], pos1[k], hat_rank[k] = e, len(cd), i, rank(flat)
        if n >= 2:
            image, tag, psi_delta[k] = psi(n, i, word, cycles, top)
            psi_img[k], psi_tag[k] = rank(image), code[tag if type(tag) is str else 0]
        if not fix:
            image, tag, varphi_delta[k] = varphi(word, cycles)
            varphi_img[k], varphi_tag[k] = rank(image), code[tag if type(tag) is str else 0]
        if top is not None:
            tops[k] = top
            if psi_tag[k] in _PHI_CODES:  # psi's phi branches give phi's record
                phi_img[k], phi_tag[k], phi_delta[k] = psi_img[k], psi_tag[k], psi_delta[k]
            else:
                image, tag, phi_delta[k] = phi(word, cycles, top)
                phi_img[k], phi_tag[k] = rank(image), code[tag if type(tag) is str else 0]
    return w


def _signed_sums(n: int, records: Iterable[tuple[int, int, int]]) -> list[MultiPoly]:
    """For each i in 0..n, the sum of (-1)^cdes x^exc over the records
    (i, exc, cdes mod 2), one per object with pi(i) = 1."""
    terms: list[dict[tuple[int, int, int, int], int]] = [{} for _ in range(n + 1)]
    for (i, exc, odd), count in Counter(records).items():
        exps = (exc, 0, 0, 0)
        terms[i][exps] = terms[i].get(exps, 0) + (-count if odd else count)
    return [MultiPoly(t) for t in terms]


def _law_pass(
    n: int, w: _PermWalk, m: _MapRecords, pairs: bytes, bad_fixed: str, bad_pair: str,
    self_fixed: bool,
) -> tuple[list[str | None], list[str | None], list[list[int]]]:
    """One pass over the records of psi or varphi: for each i, the first law
    failure, the first false claim and the ranks of the fixed points."""
    img, tags, exc, cdes, pos1 = m.img, m.tag, w.exc, w.cdes, w.pos1
    laws: list[str | None] = [None] * (n + 1)
    claims: list[str | None] = [None] * (n + 1)
    fixed: list[list[int]] = [[] for _ in range(n + 1)]
    for k, (j, t, d, i) in enumerate(zip(img, tags, m.delta, pos1)):
        if not t:
            continue  # outside the map's domain
        if j < 0 or pos1[j] != i or not tags[j] or img[j] != k:
            law = "not an involution"
        elif exc[j] != exc[k]:
            law = "excedances not preserved"
        elif t == _FIXED:
            if d == 0 and (j == k or not self_fixed):
                fixed[i].append(k)
                continue
            law = bad_fixed
        elif d not in (-1, 1):
            law = f"cdes delta {d}"
        elif tags[j] != pairs[t]:
            law = bad_pair.format(_TAGS[t - 1], _TAGS[tags[j] - 1])
        else:
            if d != cdes[j] - cdes[k] and claims[i] is None:
                claims[i] = (
                    f"i={i}, pi={_unrank(k, n)}: cdes delta {cdes[j] - cdes[k]}, stated {d}"
                )
            continue
        if laws[i] is None:
            laws[i] = f"i={i}, pi={_unrank(k, n)}: {law}"
    return laws, claims, fixed


def _fold_psi_involution(n: int, seed: int, w: _PermWalk) -> str | None:
    laws, claims, fixed = _law_pass(n, w, w.psi, *_PSI_LAWS)
    for i in range(1, n + 1):
        if laws[i]:
            return laws[i]
        expected_fixed = iv.psi_fixed_set(n, i)
        if set(fixed[i]) != {_ranker(n)(q.word) for q in expected_fixed}:
            return f"i={i}: fixed set mismatch ({len(fixed[i])} found)"
        want = 0 if 1 < i < n else 2 ** (n - 2)
        if len(expected_fixed) != want:
            return f"i={i}: fixed set has size {len(expected_fixed)}, want {want}"
    return next(filter(None, claims[1:]), None)


def _fold_psi_fixed_weight(n: int, seed: int, w: _PermWalk) -> str | None:
    sums = _signed_sums(n, zip(w.pos1, w.exc, w.cdes.translate(_PARITY)))
    for i in range(1, n + 1):
        fixed = []
        for p in iv.psi_fixed_set(n, i):
            k = _ranker(n)(p.word)
            if w.cdes[k]:
                return f"i={i}: fixed point {p} has a cycle descent"
            fixed.append(k)
        fixed_weight = MultiPoly(Counter((w.exc[k], 0, 0, 0) for k in fixed))
        closed = sp.alternating_closed_form(n, i).substitute(t=1)
        if not (sums[i] == fixed_weight == closed):
            return f"i={i}: enumerated {sums[i]}, fixed set {fixed_weight}, closed {closed}"
    return None


def _fold_varphi_involution(n: int, seed: int, w: _PermWalk) -> str | None:
    laws, claims, fixed = _law_pass(n, w, w.varphi, *_VARPHI_LAWS)
    sums = _signed_sums(n, compress(zip(w.pos1, w.exc, w.cdes.translate(_PARITY)), w.varphi.tag))
    for i in range(2, n + 1):
        if laws[i]:
            return laws[i]
        fp = iv.varphi_fixed_point(n, i)
        if fixed[i] != [_ranker(n)(fp.word)]:
            # the count, then at most the first three in rank order
            shown = ", ".join(str(_unrank(k, n)) for k in fixed[i][:3])
            more = ", ..." if len(fixed[i]) > 3 else ""
            return f"i={i}: fixed set of {len(fixed[i])} {{{shown}{more}}}, expected {{{fp}}}"
        closed = sp.alternating_closed_form(n, i, derangements=True).substitute(t=1)
        if sums[i] != closed:
            return f"i={i}: signed sum {sums[i]}, closed {closed}"
    return next(filter(None, claims[2:]), None)


def _fold_phi_preservation(n: int, seed: int, w: _PermWalk) -> str | None:
    pairs, claim = _PHI_PAIR_CODES, None
    img, tags, exc, cdes, hat_rank, tops = (
        w.phi.img, w.phi.tag, w.exc, w.cdes, w.hat_rank, w.top
    )
    for k, (j, t, d) in enumerate(zip(img, tags, w.phi.delta)):
        if not t:
            continue  # increasing flattening: phi is undefined
        if j < 0 or hat_rank[j] != hat_rank[k]:
            return f"pi={_unrank(k, n)}: flattened word changed"
        if tops[j] != tops[k]:
            return f"pi={_unrank(k, n)}: top-descent changed"
        if exc[j] != exc[k]:
            return f"pi={_unrank(k, n)}: excedances changed"
        if d not in (-1, 1):
            return f"pi={_unrank(k, n)}: cdes delta {d}"
        if img[j] != k or tags[j] != pairs[t]:
            return f"pi={_unrank(k, n)}: split/merge pairing broken"
        if d != cdes[j] - cdes[k] and claim is None:
            claim = f"pi={_unrank(k, n)}: cdes delta {cdes[j] - cdes[k]}, stated {d}"
    return claim


# ---------------------------------------------------------------------------
# Bijection checks from two walks per size.
#
# The signed walk reads plain data from start to end and calls the trusted
# cores of ``bijections`` and ``matchings``, which read and give plain data
# (standard cycles and a negative set, a partner list, or the edge counts
# of one) and skip the validation the public maps keep for outside input.
# No ``SignedPermutation``, ``PerfectMatching`` or ``MatchStats`` is built
# for an object; one is built only to word a failure or the downline note.
# ``_walk_signed(n)`` walks the core stream of the negative cdes
# permutations of size n once, which gives each word with its standard
# cycles, its fixed points and the negative sets that sign it (one list of
# sets, built once, for all the words with the same cycle descents): for
# every signed object it runs the gamma core, the inverse core on the image
# and the edge kernel of the statistics on the image, once each, and tests
# that the image is the canonical partner list of a Callan matching of
# 1..n.  The inverse core unfolds one cycle per component, so com is the
# count of the cycles it gives, and the components of an image are walked
# once; where the inverse core raised, the component walks of ``matchings``
# count them instead.  That count is cyc whenever the trip holds, so
# statistic-transport's com half rests on the inverse core's partition,
# and com = cyc is no premise apart from the trip.  The edge kernel gives
# up, down and ver, so ver = fix is read apart from the inverse core.
# Theta is gamma on one cycle, so the theta checks read the same trip,
# image and statistics on the cyclic objects.  The cores write
# each cycle's edges, and unfold each component, in one pass; the unfold
# sorts only the blocks of more than one index.  A forward trip holds when
# the inverse core gives back the object's cycles and negative set, so no
# permutation is rebuilt from cycles, and cycles that cover no permutation
# are a failed trip, not bad input.  The trip is broken only when the
# inverse core says so, by another answer or by a key it cannot follow.
# An image that the edge kernel or the component walks cannot read, with
# a key that names no slot (past the list, past a byte or no integer), or
# one too short to hold key 3, the top vertex of slot 1, is no image and
# has no edge counts, and the downline note leaves it out.  ``_walk_callan(n)``
# only counts the Callan matchings of size n, off a stream that keeps its
# choices on a stack of its own, and those with no vertical, by one
# comparison of the partners of the bottom keys with the top keys.  A walk
# keeps counts and the first failure of each law it reads.  Each bijection
# check is a fold of its outcome off the two walks.
#
# The signed walk of a run's largest size is most of the run's walk time, so
# it runs as n shards, which a pool shares out: ``_walk_signed(n, a)`` walks
# only the words that start with the letter a, a contiguous range of the
# stream.  The caller merges the records of the n shards in the order of a,
# never in the order they ran or ended in, so the merged record is the whole
# walk's: the counts add up (``_SignedWalk.extend``), and each first failure
# is the earliest shard's that has one, which is the first in the stream.
# A shard's record, counts and a few witness texts, pickles to about 245
# bytes at n = 7.
#
# The image checks hold by counting, with no set of images or of matchings.
# The inverse core is a function of the partner list, so the forward trip on
# every object s makes gamma injective; when every image is read and is a
# Callan matching, gamma(S) is |S| Callan matchings, and the Callan count
# |C| = |S| gives gamma(S) = C (gamma-image).  The forward trip gives back
# cyc cycles, one per component, so com = cyc on every s, and gamma maps the
# cyclic objects onto the connected matchings (theta-image, the same fold);
# with ver = fix, the derangements go onto the matchings with no vertical
# (derangement-restriction).  Each m in C is then some gamma(s), so the
# reverse trip gamma(gamma_inv(m)) = m needs no walk of its own.


class _SignedWalk:
    def __init__(self) -> None:
        self.count = self.derangements = 0
        self.holds = 0  # objects on which the row-of-partner downline form holds
        self.cyclic_fails = 0  # cyclic objects on which it fails
        # check id, or "no-callan-image", -> first failure
        self.first: dict[str, str] = {}
        self.unimaged = 0  # objects whose image has a key that names no slot
        self.invalid = 0  # objects whose image is no Callan matching's partner list
        self.breaks = 0  # objects that break the transport rule ver = fix

    def extend(self, later: _SignedWalk) -> None:
        """Take in the record of a walk of the objects that follow this
        walk's in the stream: the counts add up, and a first failure stays
        this walk's where it has one."""
        self.count += later.count
        self.derangements += later.derangements
        self.holds += later.holds
        self.cyclic_fails += later.cyclic_fails
        self.unimaged += later.unimaged
        self.invalid += later.invalid
        self.breaks += later.breaks
        for check_id, witness in later.first.items():
            self.first.setdefault(check_id, witness)


class _CallanWalk:
    def __init__(self) -> None:
        self.count = self.no_vertical = 0


def _signed(word: tuple[int, ...], neg: frozenset[int]) -> bj.SignedPermutation:
    """The signed object of a word and a negative set; used only to name a
    witness."""
    return bj.SignedPermutation._trusted(Permutation._trusted(word), neg)


def _walk_signed(n: int, letter: int | None = None) -> _SignedWalk:
    w = _SignedWalk()
    first = w.first
    # the canonical partner list of a Callan matching of 1..n, as bytes: 2n + 2
    # of them, 0 in slots 0 and 1, an involution of the keys 2..2n+1 with no
    # fixed key, and no upline (from the edge kernel).  Read through
    # itself as a translate table, padded with 0, the list gives ident when
    # partner[0] is 0 and partner[partner[k]] is k on every key k, which
    # leaves partner[k] no slot outside 2..2n+1; the list XOR ident then has
    # its last zero byte at slot 1 when partner[1] is 0 and no key is fixed.
    size = 2 * n + 2
    ident, pad = bytes((0, 0, *range(2, size))), bytes(256 - size)
    diagonal = int.from_bytes(ident, "big")
    # read off their modules once per walk, so that a test can patch them
    stream, edges_of, walks = bj._negative_cdes_core, mt._edge_counts, mt._component_walks
    gamma, gamma_inv = bj._gamma_core, bj._gamma_inv_core
    for word, cycles, fix, negs in stream(n, letter=letter):
        cyc = len(cycles)
        w.count += len(negs)
        if not fix:
            w.derangements += len(negs)
        for neg in negs:
            partner = gamma(cycles, neg, n)
            try:
                back = gamma_inv(partner)
                trip = back == (cycles, neg)
            except (IndexError, TypeError, ValueError):  # a key the inverse core cannot follow
                back, trip = None, False
            if not trip:
                witness = f"round trip broke at {_signed(word, neg)}"
                first.setdefault("gamma-roundtrip", witness)
                if cyc == 1:  # theta is gamma on one cycle
                    first.setdefault("theta-roundtrip", witness)
            try:
                up, down, ver = edges_of(partner)
                # the inverse core unfolds one cycle per component; where it
                # raised, the component walks count them
                com = len(back[0]) if back is not None else sum(1 for _ in walks(partner))
                key, top = bytes(partner), partner[3]  # key 3 is (1, 1)
            except (IndexError, TypeError, ValueError):  # a key that names no slot
                w.unimaged += 1  # no matching: nothing else to read off the image
                continue
            if (
                up
                or len(key) != size
                or key.translate(key + pad) != ident
                or (int.from_bytes(key, "big") ^ diagonal).to_bytes(size, "big").rfind(0) != 1
            ):
                w.invalid += 1
                first.setdefault("no-callan-image", str(_signed(word, neg)))
            if com != cyc or ver != fix:
                w.breaks += ver != fix
                first.setdefault("statistic-transport", (
                    f"{_signed(word, neg)}: com={com} cyc={cyc} ver={ver} fix={fix}"
                ))
            if down == len(neg) + (0 if top & 1 else 1):
                w.holds += 1
            else:
                w.cyclic_fails += cyc == 1
                if "downline-global-report" not in first:
                    first["downline-global-report"] = str(_signed(word, neg))
            if cyc == 1:
                bump = 1 if mt._edge_kind(3, top) == "downline" else 0
                if down != len(neg) + bump:
                    first.setdefault(
                        "downline-per-cycle",
                        f"{_signed(word, neg)}: down={down}, neg={len(neg)}, bump={bump}",
                    )
    return w


def _walk_callan(n: int) -> _CallanWalk:
    w = _CallanWalk()
    tops = range(3, 2 * n + 2, 2)  # the top key 2i + 1 of each slot i
    # read off its module at each walk, so that a test can patch it
    for partner in mt._matchings_core(n, "callan"):
        w.count += 1
        # (i, 0)-(i, 1) is a vertical: key 2i partnered with key 2i + 1
        w.no_vertical += not any(map(eq, partner[2::2], tops))
    return w


def _law(n: int, seed: int, s: _SignedWalk, c: _CallanWalk, check_id: str) -> str | None:
    """The first failure of a law the signed walk reads on its own."""
    return s.first.get(check_id)


def _fold_counts(
    n: int, seed: int, s: _SignedWalk, c: _CallanWalk, derangements: bool = False
) -> str | None:
    if derangements:
        m_count, rec, signed = c.no_vertical, sp.b20_count(n), s.derangements
    else:
        m_count, rec, signed = c.count, sp.klazar_count(n), s.count
    if not (m_count == rec == signed):
        return f"matchings {m_count}, recurrence {rec}, signed perms {signed}"
    return None


def _fold_image(
    n: int, seed: int, s: _SignedWalk, c: _CallanWalk, derangements: bool = False
) -> str | None:
    """gamma(S) = C by counting, or the first of its premises that fails;
    gamma-image and theta-image read these alone (the trip gives com = cyc),
    and derangement-restriction adds the rule ver = fix on every object."""
    if s.unimaged:
        return f"{s.unimaged} of {s.count} inputs have no image: a key that names no slot"
    if s.invalid:
        return (
            f"{s.invalid} of {s.count} images are no Callan matching;"
            f" the first is gamma({s.first['no-callan-image']})"
        )
    if trip := s.first.get("gamma-roundtrip"):
        return f"gamma not shown injective: {trip}"
    if s.count != c.count:
        return f"{s.count} inputs, {c.count} Callan matchings"
    if derangements and s.breaks:
        return f"ver = fix fails on {s.breaks} of {s.count} inputs"
    return None


def _fold_downline_global_report(
    n: int, seed: int, s: _SignedWalk, c: _CallanWalk
) -> str:
    # an object whose image the walk could not read has no edge counts
    imaged = s.count - s.unimaged
    msg = f"row-of-partner form holds for {s.holds}/{imaged} signed permutations"
    if s.holds < imaged:
        first = s.first["downline-global-report"]
        return msg + f"; {s.cyclic_fails} failing inputs are cyclic; first failure {first}"
    return msg + "; no failures"


# ---------------------------------------------------------------------------
# Suite wiring.


# check id -> its fold, called as ``fold(n, seed, *records)`` in the calling
# process on the records of the check's walks of size n (see ``_WALKS``):
# its first failure, or None.  A check of no walks reads no record, and an
# informational check gives its note text instead.  The suites, least sizes,
# caps and walks of the checks are the layout of ``caps``, read at each run.
_FOLDS: dict[str, Callable[..., str | None]] = {
    "closed-form-all": _fold_closed_form,
    "closed-form-derangement": partial(_fold_closed_form, derangements=True),
    "recurrence-all": _fold_recurrence,
    "recurrence-derangement": partial(_fold_recurrence, derangements=True),
    "cdes-poly-all": _fold_cdes_poly,
    "cdes-poly-derangement": partial(_fold_cdes_poly, derangements=True),
    "sequence-cross-check": _check_sequence_cross,
    **{f"identity-{i}": partial(_fold_identity, identity_id=i) for i in sp.IDENTITY_IDS},
    "poly-ring-axioms": _check_poly_axioms,
    "psi-involution": _fold_psi_involution,
    "psi-fixed-weight": _fold_psi_fixed_weight,
    "varphi-involution": _fold_varphi_involution,
    "phi-preservation": _fold_phi_preservation,
    "count-callan": _fold_counts,
    "count-callan-no-vertical": partial(_fold_counts, derangements=True),
    "gamma-image": _fold_image,
    "theta-image": _fold_image,
    "gamma-roundtrip": partial(_law, check_id="gamma-roundtrip"),
    "theta-roundtrip": partial(_law, check_id="theta-roundtrip"),
    "statistic-transport": partial(_law, check_id="statistic-transport"),
    "derangement-restriction": partial(_fold_image, derangements=True),
    "downline-per-cycle": partial(_law, check_id="downline-per-cycle"),
    "downline-global-report": _fold_downline_global_report,
}
_INFORMATIONAL = ("downline-global-report",)


def _plan(suite: str, n_max: int | None) -> list[tuple[str, int]]:
    tasks: list[tuple[str, int]] = []
    for check_id in SUITES[suite]:
        cap = verify_cap(check_id)
        hi = cap if n_max is None else min(n_max, cap)
        for n in range(CHECK_LAYOUT[check_id][0], hi + 1):
            tasks.append((check_id, n))
    return tasks


# walk -> its function of n; the tally goes through the cache of ``statpolys``,
# so that the suites of one process build each tally once
_WALKS = {
    "tally": sp._tally, "perms": _walk_perms, "signed": _walk_signed, "callan": _walk_callan
}


def _tasks(plan: list[tuple[str, int]]) -> dict[tuple, tuple]:
    """The tasks of a plan as (function, *args), keyed (walk, n) in plan
    order: one for each walk of size n that a planned check reads, shared by
    all such checks.  The signed walk of the plan's largest signed size, the
    longest task, is n shards instead, one per first letter a, each keyed
    ("signed", n, a) and run as ``_walk_signed(n, a)``; they are listed from
    the last letter, whose shard signs the most objects, to the first, so
    that a pool starts the largest shard first."""
    top = max((n for check_id, n in plan if "signed" in CHECK_LAYOUT[check_id][2]), default=0)
    tasks: dict[tuple, tuple] = {}
    for check_id, n in plan:
        for walk in CHECK_LAYOUT[check_id][2]:
            if (walk, n) == ("signed", top):
                for a in range(n, 0, -1):
                    tasks.setdefault((walk, n, a), (_walk_signed, n, a))
            else:
                tasks.setdefault((walk, n), (_WALKS[walk], n))
    return tasks


def ProcessPoolExecutor(max_workers: int):
    """A ``concurrent.futures`` process pool, imported on first call, so that
    ``multiprocessing`` loads only in runs that start more than one worker."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def run_verification(
    suite: str,
    n_max: int | None = None,
    jobs: int = 1,
    seed: int = DEFAULT_SEED,
) -> VerificationSummary:
    """Run one suite up to ``n_max`` (defaulting to every check's own cap).

    Raises ValueError for an unknown suite, an ``n_max`` beyond the
    suite's cap or a ``jobs`` below 1; sizes are never silently truncated
    below a check's documented cap.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite: {suite!r} (choose from {sorted(SUITES)})")
    cap = suite_cap(suite)
    if n_max is not None and n_max > cap:
        raise ValueError(f"suite {suite!r} is capped at n <= {cap}, got n_max={n_max}")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    plan = _plan(suite, n_max)
    tasks = _tasks(plan)
    # the pool starts all its workers at the first submit, so no more than tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        # largest sizes first, so the longest tasks start side by side
        order = sorted(tasks, key=lambda key: -key[1])
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {key: pool.submit(*tasks[key]) for key in order}
            results = {key: future.result() for key, future in futures.items()}
    else:
        results = {key: fn(*args) for key, (fn, *args) in tasks.items()}
    # the shards of a signed walk, merged in first-letter order: the order of
    # the stream, whatever the order they ran or ended in
    for key in sorted(key for key in tasks if len(key) == 3):
        results.setdefault(key[:2], _SignedWalk()).extend(results.pop(key))
    summary = VerificationSummary(
        suite=suite,
        n_lo=min((CHECK_LAYOUT[c][0] for c in SUITES[suite]), default=1),
        n_hi=max((n for _, n in plan), default=0),
        checks_run=len(plan),
    )
    for check_id, n in plan:
        walks = CHECK_LAYOUT[check_id][2]
        detail = _FOLDS[check_id](n, seed, *(results[walk, n] for walk in walks))
        if detail is not None:
            outcomes = summary.notes if check_id in _INFORMATIONAL else summary.failures
            outcomes.append(CheckOutcome(check_id, n, detail))
    return summary
