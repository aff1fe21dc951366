"""The key-arithmetic matching kernels against naive oracles, exhaustively.

``match_stats``, ``is_callan`` and the filters of ``enumerate_matchings``
read each edge's class off the parity of its partner keys, and
``gamma_inv`` unfolds each component in the loop that walks it.  These
tests compare them, over every matching of {1..n} x {0, 1}, with the
vertex-based classification of ``matching_oracle`` and with an unfold
written here from the component walks.
"""

import os

import pytest

from cycledescent.bijections import SignedPermutation, gamma_inv
from cycledescent.matchings import (
    MATCHING_FILTERS,
    MVertex,
    _component_walks,
    edge_class,
    enumerate_matchings,
    is_callan,
    match_stats,
)
from cycledescent.perms import Permutation

from matching_oracle import naive_stats

# Tier-1 runs n <= 6 (10,395 matchings at n = 6); CI runs n = 7 (135,135)
# as a step of its own with KERNEL_ORACLE_SIZES=7.
ORACLE_SIZES = [int(n) for n in os.environ.get("KERNEL_ORACLE_SIZES", "0 1 2 3 4 5 6").split()]

# the edge classes each filter keeps out, by the oracle's names
NAIVE_REFUSED = {"all": (), "callan": ("upline",), "callan_no_vertical": ("upline", "vertical")}


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_kernels_match_naive_classification(n):
    assert set(NAIVE_REFUSED) == set(MATCHING_FILTERS)
    kept = {flt: [] for flt in MATCHING_FILTERS}
    for m in enumerate_matchings(n):
        kinds, supports = naive_stats(m)
        stats = match_stats(m)
        assert (stats.arc, stats.up, stats.down, stats.ver, stats.com) == (
            kinds["arc"], kinds["upline"], kinds["downline"], kinds["vertical"], len(supports)
        )
        assert is_callan(m) == (kinds["upline"] == 0)
        for flt, refused in NAIVE_REFUSED.items():
            if not any(kinds[kind] for kind in refused):
                kept[flt].append(m)
    # a filter prunes the unfiltered stream, so it keeps its order
    for flt in MATCHING_FILTERS:
        assert list(enumerate_matchings(n, flt)) == kept[flt]


def naive_gamma_inv(m):
    """gamma_inv from the component walks: a bar after every arc step."""
    n = m.n
    word = [0] * n
    neg = set()
    for start, keys in _component_walks(m):
        runs, run, out = [], [start], 2 * start
        for key in keys:
            step = (MVertex(out >> 1, out & 1), MVertex(key >> 1, key & 1))
            if edge_class(step) == "arc":
                runs.append(run)
                run = []
            run.append(key >> 1)
            out = key ^ 1
        runs.append(run)
        cycle = []
        for run in runs:
            run = sorted(run, reverse=True)
            cycle += run
            neg.update(run[:-1])
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            word[a - 1] = b
    return SignedPermutation(Permutation(tuple(word)), frozenset(neg))


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_gamma_inv_matches_naive_unfold(n):
    for m in enumerate_matchings(n, "callan"):
        assert gamma_inv(m) == naive_gamma_inv(m)
