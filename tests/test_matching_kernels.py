"""The key-arithmetic matching code against naive oracles, exhaustively.

``match_stats``, ``is_callan`` and the filters of ``enumerate_matchings``
read each edge's class off the parity of its partner keys, ``gamma_inv``
unfolds each component in the loop that walks it, and the string, JSON,
text and SVG emitters read vertices and classes off the keys.  These
tests compare them, over every matching of {1..n} x {0, 1}, with the
vertex-based classification and emitters of ``matching_oracle`` and with
an unfold written here from the component walks; the emitters also on
seeded matchings of sparse supports.  Every matching also survives a JSON
round trip through ``mk_matching``.  The cores of gamma, theta and their
inverses, which the ``verify`` walks call without the public maps'
validation, give what the public maps give on every signed object and
every Callan matching of size n; the forward cores also give what the
naive steps 1-3 of ``matching_oracle`` give, which the public maps, calling
those same cores, cannot show.  The core stream of signed objects gives
each permutation's standard cycles and fixed points, as its accessors
read them, and every subset of its cycle descents, and the two bijection walks of ``verify``, which read those
plain streams and partner lists, keep the same records as the object-based
walks of ``walk_oracle``.
"""

import json
import os
import random

import pytest

import matching_oracle as oracle
import walk_oracle
from cycledescent import verify
from cycledescent.bijections import (
    SignedPermutation,
    _gamma_core,
    _gamma_inv_core,
    _negative_cdes_core,
    _theta_core,
    _theta_inv_core,
    enumerate_negative_cdes,
    gamma,
    gamma_inv,
    theta,
    theta_inv,
)
from cycledescent.caps import CAPS
from cycledescent.diagrams import render_svg, render_text
from cycledescent.matchings import (
    MATCHING_FILTERS,
    MVertex,
    _component_walks,
    edge_class,
    enumerate_matchings,
    is_callan,
    match_stats,
    matching_from_json_dict,
    matching_to_json_dict,
    mk_matching,
)
from cycledescent.perms import Permutation, enumerate_permutations, standard_cycles, statistics

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
        kinds, supports = oracle.naive_stats(m)
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


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_cores_match_the_public_maps(n):
    for s in enumerate_negative_cdes(n):
        cycles = standard_cycles(s.perm).cycles
        assert _gamma_core(cycles, s.neg, n) == gamma(s).partner
        if len(cycles) == 1:
            assert _theta_core(cycles[0], s.neg) == theta(s).partner
    for m in enumerate_matchings(n, "callan"):
        back = gamma_inv(m)
        assert _gamma_inv_core(m.partner) == (standard_cycles(back.perm).cycles, back.neg)
        if match_stats(m).com == 1:
            back = theta_inv(m)
            assert _theta_inv_core(m.partner) == (standard_cycles(back.perm).cycles[0], back.neg)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_forward_cores_match_the_naive_steps(n):
    for s in enumerate_negative_cdes(n):
        cycles = standard_cycles(s.perm).cycles
        assert _gamma_core(cycles, s.neg, n) == oracle.naive_gamma(s).partner
        if len(cycles) == 1:
            assert _theta_core(cycles[0], s.neg) == oracle.naive_theta(s).partner


@pytest.mark.parametrize("flt", ["all", "derangement"])
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_signed_stream_core_reads_each_permutation(n, flt):
    family = "derangements" if flt == "derangement" else "all"
    want = []
    for p in enumerate_permutations(family, n):
        stats = statistics(p)
        # every subset of the cycle descents, in the order of the stream
        subsets = [frozenset()]
        for d in sorted(stats.cdes_set):
            subsets += [s | {d} for s in subsets]
        want.append((p.word, standard_cycles(p).cycles, stats.fix, subsets))
    assert list(_negative_cdes_core(n, flt)) == want


# the walks read key 3, the top vertex of slot 1, so they start at n = 1
@pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n >= 1])
def test_walks_keep_the_records_of_the_object_walks(n):
    signed, callan = verify._walk_signed(n), verify._walk_callan(n)
    # every field: the counts, the first failures, the reverse trip and the
    # image and target sets as exact bytes
    assert vars(signed) == vars(walk_oracle.walk_signed(n))
    assert vars(callan) == vars(walk_oracle.walk_callan(n))
    assert set(signed.images) == set(callan.targets) == (
        set(verify._IMAGE_CHECKS) if n <= CAPS["image sets"] else set()
    )


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_json_round_trip_of_every_matching(n):
    for m in enumerate_matchings(n):
        assert matching_from_json_dict(matching_to_json_dict(m)) == m


def assert_emitters_match_oracle(m):
    assert str(m) == oracle.matching_str(m)
    assert json.dumps(matching_to_json_dict(m)) == json.dumps(oracle.matching_to_json_dict(m))
    assert render_text(m) == oracle.render_text(m)
    assert render_svg(m) == oracle.render_svg(m)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_emitters_match_vertex_oracle(n):
    for m in enumerate_matchings(n):
        assert_emitters_match_oracle(m)


def seeded_sparse_matchings(count=200, seed=19):
    """Random matchings of random sparse supports inside 1..200."""
    rng = random.Random(seed)
    for _ in range(count):
        support = rng.sample(range(1, 201), rng.randint(1, 40))
        vertices = [[i, row] for i in support for row in (0, 1)]
        rng.shuffle(vertices)
        yield mk_matching(support, zip(vertices[::2], vertices[1::2]))


def test_emitters_match_vertex_oracle_on_sparse_supports():
    matchings = list(seeded_sparse_matchings())
    assert sum(not is_callan(m) for m in matchings) > 100  # uplines are drawn
    for m in matchings:
        assert_emitters_match_oracle(m)
