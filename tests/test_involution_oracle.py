"""psi, varphi and phi_map against naive oracles, on every object of S_n.

Each map builds its image by re-pointing a few entries of a copy of the
input's word.  The oracles here choose the branch from the definitions
(the flattening, the index m, the staircase shape by its pattern) and
rebuild the image from the whole list of the input's cycles through
``permutation_from_cycles``, which checks that they cover 1..n once.
The test reads each object's cycles, flattening and statistics once, off
the accessors, and hands them to every oracle that needs them.
The trusted cores that the walk of S_n in ``verify`` calls, and the
cycle walk core ``perms._walk_word`` that feeds them, are compared with
the public maps and the accessors of each object, which read their
values off the same core at each call.  The four involution checks of
``verify`` are folded off one walk of S_n at the same sizes.  The one-scan
``_m_index`` of the psi core gives what the set-based right-to-left scan it
replaced gives, on the cycle of 1 of every object of S_n for n <= 8, and on
seeded cycles of up to 200 values drawn so that its descent scan decides.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycledescent import involutions as iv
from cycledescent import perms
from cycledescent import verify
from cycledescent.caps import CHECK_LAYOUT
from cycledescent.perms import (
    enumerate_permutations,
    hat,
    permutation_from_cycles,
    red,
    standard_cycles,
    statistics,
)

# Tier-1 runs n <= 7 (5,040 objects at n = 7); CI runs n = 9 (362,880,
# one size past the verify cap, CAPS["involution tables"]) as a step of
# its own with INVOLUTION_ORACLE_SIZES=9.
ORACLE_SIZES = [
    int(n) for n in os.environ.get("INVOLUTION_ORACLE_SIZES", "0 1 2 3 4 5 6 7").split()
]


def naive_top(flat):
    """The last entry of a flattening above its successor; None if none."""
    tops = [a for a, b in zip(flat, flat[1:]) if a > b]
    return tops[-1] if tops else None


# Each oracle takes the cycles (as lists), the last top-descent and the
# position of 1 that the test reads once per object off the accessors.


def naive_phi(p, cycles, qv):
    k = next(k for k, cyc in enumerate(cycles) if qv in cyc)
    cyc = cycles[k]
    pos = cyc.index(qv)
    if pos == len(cyc) - 1:
        new_cycles = cycles[:k] + [cyc + cycles[k + 1]] + cycles[k + 2 :]
        tag, delta = "phi-merge", 1
    else:
        new_cycles = cycles[:k] + [cyc[: pos + 1], cyc[pos + 1 :]] + cycles[k + 1 :]
        tag, delta = "phi-split", -1
    return permutation_from_cycles(new_cycles, p.n), tag, delta


def naive_m(n, cycles):
    """The least j with c_j not the largest value left out of c_{j+1}.."""
    tail = cycles[0][1:]
    for j in range(1, len(tail) + 1):
        if tail[j - 1] != max(set(range(1, n + 1)) - set(tail[j:])):
            return j
    return None


def naive_psi(n, p, cycles, qv, inv1):
    first = cycles[0]
    if inv1 == 1:
        return (p, "fixed", 0) if qv is None else naive_phi(p, cycles, qv)
    if qv is not None and qv not in first:
        return naive_phi(p, cycles, qv)
    m = naive_m(n, cycles)
    if m is None:
        return p, "fixed", 0
    if m >= 2:
        new_cycles = [[1, *first[m:]], first[1:m], *cycles[1:]]
        tag, delta = "psi-case1", -1
    else:
        new_cycles = [[1, *cycles[-1], *first[1:]], *cycles[1:-1]]
        tag, delta = "psi-case2", 1
    return permutation_from_cycles(new_cycles, n), tag, delta


def staircase(seq):
    """Order-isomorphic to 1, .., r-1, s, s-1, .., r for some r (s >= 2)."""
    s = len(seq)
    pattern = red(seq).word
    return s >= 2 and any(
        pattern == (*range(1, r), *range(s, r - 1, -1)) for r in range(1, s + 1)
    )


def naive_varphi(n, p, cycles):
    last = cycles[-1]
    if staircase(last):
        if len(cycles) == 1:
            return p, "fixed", 0
        prev = cycles[-2]
        top = last.index(max(last))
        if prev[1] < last[top - 1]:
            merged = [prev[0], *last, *prev[1:]]
        else:
            merged = [prev[0], *last[: top - 1], *last[top:], last[top - 1], *prev[1:]]
        return permutation_from_cycles([*cycles[:-2], merged], n), "varphi-merge", 1
    cut = max(c for c in range(2, len(last)) if staircase(last[:c]))
    top = last.index(max(last[:cut]))
    head = [last[0], *last[cut:]]
    if last[cut] < last[top - 1]:
        rest = last[1:cut]
    else:
        rest = [*last[1:top], last[cut - 1], *last[top : cut - 1]]
    return permutation_from_cycles([*cycles[:-1], head, rest], n), "varphi-split", -1


def outcome(out):
    return out.image, out.case_tag, out.delta_cdes


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_maps_match_naive_cycle_rebuild(n):
    for p in enumerate_permutations("all", n):
        s = statistics(p)
        cycles = [list(c) for c in standard_cycles(p).cycles]
        qv = naive_top(hat(p))
        if n >= 2:
            assert outcome(iv.psi(n, s.inv1, p)) == naive_psi(n, p, cycles, qv, s.inv1), p
            if not s.fix:
                assert outcome(iv.varphi(n, s.inv1, p)) == naive_varphi(n, p, cycles), p
        if qv is not None:
            assert outcome(iv.phi_map(p)) == naive_phi(p, cycles, qv), p


def plain(out):
    return out.image.word, out.case_tag, out.delta_cdes


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_cores_match_the_public_maps_and_the_cached_walk(n):
    # the walk of S_n in verify feeds the cores the plain data of one
    # _walk_word; the public maps check their input and wrap the same cores
    for p in enumerate_permutations("all", n):
        cycles, exc, fix, cdes, flat, top = perms._walk_word(p.word)
        s = statistics(p)
        assert (cycles, exc, fix, len(cdes), frozenset(cdes), flat, top) == (
            standard_cycles(p).cycles, s.exc, s.fix, s.cdes, s.cdes_set, hat(p),
            iv.last_top_descent(p),
        ), p
        if n >= 2:
            i = cycles[0][-1]
            assert i == s.inv1, p
            assert iv._psi_core(n, i, p.word, cycles, top) == plain(iv.psi(n, i, p)), p
            if not fix:
                assert iv._varphi_core(p.word, cycles) == plain(iv.varphi(n, i, p)), p
        if top is not None:
            assert iv._phi_core(p.word, cycles, top) == plain(iv.phi_map(p)), p


FOLDS = ("psi-involution", "psi-fixed-weight", "varphi-involution", "phi-preservation")


@pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n >= 1])
def test_involution_folds_hold_on_one_walk(n):
    # the four involution checks of verify, folded off one walk of S_n at
    # the same sizes, so that CI runs them one size past the verify cap
    w = verify._walk_perms(n)
    for check_id in FOLDS:
        if n >= CHECK_LAYOUT[check_id][0]:
            assert verify._FOLDS[check_id](n, verify.DEFAULT_SEED, w) is None, (check_id, n)


def set_m_index(n, first):
    """m_index by the set-based scan: right to left over the tail c_1 ..
    c_l, keeping the largest value not yet seen."""
    tail = first[1:]
    excluded, m, cur_max = set(), None, n
    for j in range(len(tail), 0, -1):
        while cur_max in excluded:
            cur_max -= 1
        if tail[j - 1] < cur_max:
            m = j
        excluded.add(tail[j - 1])
    return m


@pytest.mark.parametrize("n", range(1, 9))
def test_m_index_matches_the_set_based_scan(n):
    for word in perms._all_words(n):
        first = perms._walk_word(word)[0][0]
        assert iv._m_index(n, first) == set_m_index(n, first), word


@st.composite
def first_cycles(draw, max_n=200):
    """(n, cycle of 1) of a permutation of [n].  Most draws put every value
    above c_1 in the tail, where m is no longer 1, with a sorted run in
    front, so that m is a late descent or None."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n == 1 or draw(st.integers(0, 4)) == 0:
        tail = draw(st.permutations(range(2, n + 1)))[: draw(st.integers(0, n - 1))]
        return n, (1, *tail)
    c1 = draw(st.integers(min_value=2, max_value=n))
    below = draw(st.lists(st.sampled_from(range(2, c1)), unique=True)) if c1 > 2 else []
    rest = list(draw(st.permutations([*below, *range(c1 + 1, n + 1)])))
    run = draw(st.integers(0, len(rest)))
    return n, (1, c1, *sorted(rest[:run]), *rest[run:])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(first_cycles())
def test_m_index_matches_the_set_based_scan_beyond_the_cap(drawn):
    n, first = drawn
    assert iv._m_index(n, first) == set_m_index(n, first)
