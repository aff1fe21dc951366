"""The key-arithmetic matching code against naive oracles, exhaustively.

``match_stats``, ``is_callan`` and the filters of ``enumerate_matchings``
read each edge's class off the parity of its partner keys, ``gamma_inv``
unfolds each component in the loop that walks it, and the string, JSON,
text and SVG emitters read vertices and classes off the keys.  These
tests compare them, over every matching of {1..n} x {0, 1}, with the
vertex-based classification and emitters of ``matching_oracle`` and with
an unfold written here from the component walks; the emitters also on
seeded matchings of sparse supports.  The unfiltered stream gives the
partner lists of ``matching_oracle``'s naive recursion in the same order,
and each filter keeps the order of the unfiltered stream.  Every matching
also survives a JSON round trip through ``mk_matching``.  The cores of gamma and its inverse,
which the ``verify`` walks call without the public maps' validation, give
what the public maps give on every signed object and every Callan matching
of size n, and what the public theta and theta_inv give on the cyclic
objects and the connected matchings.  On every Callan matching, the
inverse core gives as many cycles as ``match_stats`` counts components, and
``_edge_counts`` gives its up, down and ver: the signed walk of ``verify``
reads com and the edge classes there.  Where the inverse core raises on
every image, the component walks of ``matchings`` count com in its place,
and the signed walk keeps its record but for the broken trips.  The gamma core and the public theta
also give what the naive steps 1-3 of ``matching_oracle`` give, which the
public maps, calling those same cores, cannot show.  The core stream of
signed objects gives each permutation's standard cycles and fixed points,
as its accessors read them, and every subset of its cycle descents, its
shards by first letter are the whole stream, and
the two bijection walks of ``verify``, which read those plain streams and
partner lists, keep the same records as the object-based walks of
``walk_oracle``; the signed walk's test that an image is a Callan
matching agrees with the naive one there on every matching of n <= 3 and
on each change of one of its entries.  ``verify`` runs the signed walk of
its largest size as one shard per first letter; the record it merges from
the shards is the whole walk's, field by field.
"""

import json
import os
import random

import pytest

import matching_oracle as oracle
import walk_oracle
from cycledescent import bijections as bj
from cycledescent import verify
from cycledescent.bijections import (
    SignedPermutation,
    _gamma_core,
    _gamma_inv_core,
    _negative_cdes_core,
    enumerate_negative_cdes,
    gamma,
    gamma_inv,
    theta,
    theta_inv,
)
from cycledescent.diagrams import render_svg, render_text
from cycledescent.matchings import (
    MATCHING_FILTERS,
    MVertex,
    _component_walks,
    _edge_counts,
    _matchings_core,
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


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_unfiltered_stream_keeps_the_naive_order(n):
    want = list(oracle.naive_partner_lists(n))
    assert list(_matchings_core(n)) == want
    assert [m.partner for m in enumerate_matchings(n)] == want


def naive_gamma_inv(m):
    """gamma_inv from the component walks: a bar after every arc step."""
    n = m.n
    word = [0] * n
    neg = set()
    for start, keys in _component_walks(m.partner):
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
            assert _gamma_core(cycles, s.neg, n) == theta(s).partner
    for m in enumerate_matchings(n, "callan"):
        back = gamma_inv(m)
        assert _gamma_inv_core(m.partner) == (standard_cycles(back.perm).cycles, back.neg)
        if match_stats(m).com == 1:
            back = theta_inv(m)
            assert _gamma_inv_core(m.partner) == (standard_cycles(back.perm).cycles, back.neg)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_inverse_core_and_edge_counts_give_the_statistics(n):
    for m in enumerate_matchings(n, "callan"):
        stats = match_stats(m)
        assert len(_gamma_inv_core(m.partner)[0]) == stats.com, m
        assert _edge_counts(m.partner) == (stats.up, stats.down, stats.ver), m


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_forward_cores_match_the_naive_steps(n):
    for s in enumerate_negative_cdes(n):
        cycles = standard_cycles(s.perm).cycles
        assert _gamma_core(cycles, s.neg, n) == oracle.naive_gamma(s).partner
        if len(cycles) == 1:
            assert theta(s) == oracle.naive_theta(s)


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
    if n:  # the shards by first letter, one after another, are the whole stream
        assert [x for a in range(1, n + 1) for x in _negative_cdes_core(n, flt, a)] == want


# the walks read key 3, the top vertex of slot 1, so they start at n = 1
@pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n >= 1])
def test_walks_keep_the_records_of_the_object_walks(n):
    signed, callan = verify._walk_signed(n), verify._walk_callan(n)
    # every field: the counts, the first failures, and the counts of the
    # images that are no Callan matching and of the transport breaks
    assert vars(signed) == vars(walk_oracle.walk_signed(n))
    assert vars(callan) == vars(walk_oracle.walk_callan(n))


@pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n >= 1])
def test_component_walks_count_com_where_the_inverse_core_raises(n, monkeypatch):
    # an inverse core that raises on every image breaks every trip, and the
    # component walks count com in its place: the record is the unpatched
    # walk's but for the witnesses of the two round trips, the first object
    # and the first cyclic one; no image is missing or wrong and no
    # statistic breaks
    want = vars(verify._walk_signed(n))
    objects = [
        (str(SignedPermutation(Permutation(word), neg)), len(cycles))
        for word, cycles, _, negs in _negative_cdes_core(n) for neg in negs
    ]
    want["first"] = {
        **want["first"],
        "gamma-roundtrip": f"round trip broke at {objects[0][0]}",
        "theta-roundtrip": f"round trip broke at {next(s for s, cyc in objects if cyc == 1)}",
    }

    def refuse(partner):
        raise ValueError("refused")

    monkeypatch.setattr(bj, "_gamma_inv_core", refuse)
    got = vars(verify._walk_signed(n))
    assert got == want
    assert "statistic-transport" not in got["first"]
    assert (got["unimaged"], got["invalid"], got["breaks"]) == (0, 0, 0)


@pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n >= 1])
def test_merged_shards_keep_the_record_of_the_whole_walk(n, monkeypatch):
    # a run up to n shards its signed walk of size n; the count-callan fold
    # is handed the merged record, which must equal the unsharded walk's
    assert ("signed", n, n) in verify._tasks(verify._plan("bijections", n))
    merged = {}

    def keep(size, seed, signed, callan):
        merged[size] = signed

    monkeypatch.setitem(verify._FOLDS, "count-callan", keep)
    verify.run_verification("bijections", n_max=n)
    assert vars(merged[n]) == vars(verify._walk_signed(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_walk_tests_each_image_as_the_naive_test_does(n, monkeypatch):
    # every matching of size n, Callan or not, and each with one entry set
    # to each key, as the image of every signed object: the walk finds every
    # image, or none, no Callan matching, as the naive test of walk_oracle
    objects = sum(len(negs) for *_, negs in _negative_cdes_core(n))
    size = 2 * n + 2
    for m in enumerate_matchings(n):
        for k, q in [(0, 0), *((k, q) for k in range(size) for q in range(size))]:
            partner = m.partner[:k] + (q,) + m.partner[k + 1 :]
            monkeypatch.setattr(bj, "_gamma_core", lambda *args: partner)
            walk = verify._walk_signed(n)
            valid = walk_oracle._is_callan_partner_list(partner, n)
            assert (walk.unimaged, walk.invalid) == (0, 0 if valid else objects)


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
