"""The ``bijections`` suite walks each stream of a size once.

Its ten checks read their outcomes off one walk of the negative cdes
permutations and one walk of the Callan matchings per size, so the core
of gamma runs once per signed object (the forward round trip, the images,
the statistics) and the Callan walk, which only counts, calls no core.  The
two walks of a size are two tasks, but for the signed walk of a run's
largest size, which is one task per first letter; what they send back is
counts and texts, and the shards of a walk merge into the whole walk's
record.  The image checks, which hold by counting, also hold one size
past the size ``verify`` reports them at.
"""

import pickle
from collections import Counter
from itertools import permutations

import pytest

from cycledescent import bijections as bj
from cycledescent import matchings as mt
from cycledescent import perms, verify
from cycledescent.caps import CAPS
from cycledescent.verify import run_verification


def test_each_stream_is_walked_once_per_size(monkeypatch):
    real_signed, real_matchings, real_gamma = (
        bj._negative_cdes_core, mt._matchings_core, bj._gamma_core
    )
    signed, matchings, images, words = [], [], [], Counter()

    def walk_signed(n, flt="all", letter=None):
        signed.append((n, flt, letter))
        for item in real_signed(n, flt, letter):
            words[item[0]] += 1
            yield item

    def walk_matchings(n, flt="all"):
        matchings.append((n, flt))
        return real_matchings(n, flt)

    def gamma_core(cycles, neg, n):
        images.append((cycles, neg))
        return real_gamma(cycles, neg, n)

    monkeypatch.setattr(bj, "_negative_cdes_core", walk_signed)
    monkeypatch.setattr(mt, "_matchings_core", walk_matchings)
    monkeypatch.setattr(bj, "_gamma_core", gamma_core)
    summary = run_verification("bijections", n_max=6)
    assert summary.exit_code == 0
    # the largest size runs in one shard per first letter, and each word of
    # S_n is walked once across them
    assert Counter(signed) == Counter(
        [*((n, "all", None) for n in range(1, 6)), *((6, "all", a) for a in range(1, 7))]
    )
    assert words == Counter(w for n in range(1, 7) for w in permutations(range(1, n + 1)))
    assert sorted(matchings) == [(n, "callan") for n in range(1, 7)]
    objects = sum(len(negs) for n in range(1, 7) for *_, negs in real_signed(n))
    assert len(images) == objects


@pytest.mark.parametrize("n", [3, 6])
def test_callan_walk_calls_no_core(n, monkeypatch):
    # the Callan walk enumerates and counts: no gamma or inverse core, no
    # component walk and no edge kernel
    def refused(*args):
        raise AssertionError("the Callan walk called a core")

    for module, name in [
        (bj, "_gamma_core"), (bj, "_gamma_inv_core"), (mt, "_component_walks"),
        (mt, "_edge_counts"),
    ]:
        monkeypatch.setattr(module, name, refused)
    walk = verify._walk_callan(n)
    assert (walk.count, walk.no_vertical) == (
        sum(1 for _ in mt._matchings_core(n, "callan")),
        sum(1 for _ in mt._matchings_core(n, "callan_no_vertical")),
    )


def test_signed_stream_walks_s_n_once_per_size(monkeypatch):
    # the core stream of signed objects reads S_n off perms._all_words, the
    # one stream of S_n, once for each size the signed walk reaches, and
    # once for each shard of the largest size, n = 7; each shard walks the
    # words with its first letter, so each word is walked once
    streams, walked = Counter(), Counter()
    real_all, real_signed = perms._all_words, bj._negative_cdes_core

    def walk_signed(n, flt="all", letter=None):
        for item in real_signed(n, flt, letter):
            walked[item[0]] += 1
            yield item

    monkeypatch.setattr(perms, "_all_words", lambda n: streams.update([n]) or real_all(n))
    monkeypatch.setattr(bj, "_negative_cdes_core", walk_signed)
    assert run_verification("bijections").exit_code == 0
    assert streams == Counter({**dict.fromkeys(range(1, 7), 1), 7: 7})
    assert walked == Counter(w for n in range(1, 8) for w in permutations(range(1, n + 1)))


def test_parallel_bijections_match_serial():
    serial = run_verification("bijections", n_max=6)
    parallel = run_verification("bijections", n_max=6, jobs=2)
    assert parallel.checks_run == serial.checks_run
    assert parallel.failures == serial.failures
    assert parallel.notes == serial.notes
    assert serial.exit_code == 0


def test_largest_signed_walk_is_one_task_per_first_letter():
    # the signed and Callan walks of a size are two tasks, but the signed
    # walk of the largest size, which is one shard per first letter, listed
    # from the last letter (the largest shard) to the first
    tasks = verify._tasks(verify._plan("all", None))
    walks = [key for key in tasks if key[0] in ("signed", "callan", "bijections")]
    pairs = {(walk, n) for walk in ("signed", "callan") for n in range(1, 8)}
    assert set(walks) == pairs - {("signed", 7)} | {("signed", 7, a) for a in range(1, 8)}
    assert [key for key in walks if len(key) == 3] == [("signed", 7, a) for a in range(7, 0, -1)]
    assert all(tasks[key][1:] == key[1:] for key in walks)
    assert all(tasks[key][0] is verify._walk_signed for key in walks if key[0] == "signed")


@pytest.mark.parametrize("n", [3, 6])
def test_walks_send_no_matchings(n):
    signed, callan = verify._walk_signed(n), verify._walk_callan(n)
    for walk in (signed, callan):
        assert b"PerfectMatching" not in pickle.dumps(walk)


@pytest.mark.parametrize("n", [3, 6])
def test_perm_walk_sends_no_permutations(n):
    # the records of a walk of S_n go back to the caller, which folds them
    assert b"Permutation" not in pickle.dumps(verify._walk_perms(n))


def test_image_checks_hold_one_size_past_their_cap():
    # "image sets" bounds only the sizes the three checks are reported at;
    # their premises are read off the walks of every size
    n = CAPS["image sets"] + 1
    signed, callan = verify._walk_signed(n), verify._walk_callan(n)
    for check in ("gamma-image", "theta-image", "derangement-restriction"):
        assert verify._FOLDS[check](n, 0, signed, callan) is None


@pytest.mark.parametrize("n", [3, 6])
def test_signed_walk_makes_one_trip_per_object(n, monkeypatch):
    """One forward and one inverse core call per signed object, with the
    theta checks read off the same trip: the per-cycle kernels of the two
    cores, which write one cycle's edges and unfold one component, run
    once per cycle of each object."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return wrapper

    for name in ("_gamma_core", "_gamma_inv_core", "_theta_partners", "_unfold"):
        monkeypatch.setattr(bj, name, counted(name, getattr(bj, name)))
    verify._walk_signed(n)
    objects = sum(len(negs) for *_, negs in bj._negative_cdes_core(n))
    cycles = sum(len(c) * len(negs) for _, c, _, negs in bj._negative_cdes_core(n))
    assert calls == {
        "_gamma_core": objects, "_gamma_inv_core": objects,
        "_theta_partners": cycles, "_unfold": cycles,
    }
