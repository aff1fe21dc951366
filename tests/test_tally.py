"""The shared tally of S_n against naive loops, and the walks of S_n per size.

Every brute-force sum in ``statpolys`` reads one tally per size, built by
inserting 1, ..., n into the cycle form.  These tests compare that tally
with a naive count over S_n, recompute each sum with a loop over the
family's own enumeration stream, written here, and count the walks of each
S_n that a verification run makes.
"""

import os
from collections import Counter

import pytest

from cycledescent import perms
from cycledescent import statpolys as sp
from cycledescent import verify
from cycledescent.caps import CAPS
from cycledescent.perms import FAMILIES, enumerate_permutations, statistics
from cycledescent.poly import ONE, MultiPoly
from cycledescent.verify import run_verification


def naive_sum(family, n, term, i=None):
    acc = {}
    for p in enumerate_permutations(family, n, i):
        coeff, exps = term(p, statistics(p))
        acc[exps] = acc.get(exps, 0) + coeff
    return MultiPoly(acc)


def full_key(p, s):
    return 1, (s.exc + 10 * s.cyc, s.cdes, s.fix, s.inv1 + 10 * p.word[-1])


def key_weight(k):
    return 1, (k.exc + 10 * k.cyc, k.cdes, k.fix, k.inv1 + 10 * k.last)


# identity id -> (family, naive term of one permutation)
NAIVE_LHS = {
    "brenti": ("all", lambda p, s: ((-1) ** s.cyc, (s.exc, 0, 0, 0))),
    "kz-total": ("derangements", lambda p, s: ((-1) ** s.cyc, (s.exc, 0, 0, 0))),
    "kz-refined": ("derangements", lambda p, s: ((-1) ** s.cyc, (s.exc, 0, 0, p.word[-1]))),
    "signed-sni": ("all", lambda p, s: ((-1) ** s.cdes, (0, 0, 0, s.inv1))),
    "signed-sn": ("all", lambda p, s: ((-1) ** s.cdes, (0, 0, 0, s.inv1))),
    "signed-d-t": ("derangements", lambda p, s: ((-1) ** s.cdes, (s.exc, 0, 0, s.inv1))),
    "signed-d-parity": ("derangements", lambda p, s: ((-1) ** s.cdes, (0, 0, 0, 0))),
}


# Tier-1 compares the tally with the naive count for n <= 8; CI runs n = 9
# (about 4 s) as a step of its own with TALLY_ORACLE_SIZES=9.
ORACLE_SIZES = [int(n) for n in os.environ.get("TALLY_ORACLE_SIZES", "0 1 2 3 4 5 6 7 8").split()]


@pytest.fixture
def walks(monkeypatch):
    """Count the streams statpolys enumerates, starting from an empty tally."""
    calls = Counter()
    real = sp.enumerate_permutations

    def recording(family, n, i=None):
        calls[family, n] += 1
        return real(family, n, i)

    monkeypatch.setattr(sp, "enumerate_permutations", recording)
    sp.statistic_poly.cache_clear()
    yield calls
    sp.statistic_poly.cache_clear()


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_insertion_tally_matches_naive_counter(n):
    # the insertion rule follows from the definition of a cycle descent, not
    # from the paper's recurrences; a naive count over S_n is its check
    naive = Counter(sp._key(p) for p in enumerate_permutations("all", n))
    tally = sp._tally(n)
    assert len(tally) == len(naive)
    assert Counter(dict(tally)) == naive


@pytest.mark.parametrize("n", range(1, 8))
def test_statistic_poly_matches_naive_loop(n):
    for derangements, family in ((False, "one_at_i"), (True, "derangements_one_at_i")):
        for i in range(1, n + 1):
            naive = naive_sum(family, n, lambda p, s: (1, (s.exc, s.cdes, s.fix, i)), i)
            assert sp.statistic_poly(n, i, derangements) == naive, (n, i, derangements)


@pytest.mark.parametrize("n", range(0, 8))
def test_cdes_distribution_brute_matches_naive_loop(n):
    for derangements, family in ((False, "all"), (True, "derangements")):
        naive = naive_sum(family, n, lambda p, s: (1, (0, s.cdes, 0, 0)))
        assert sp.cdes_distribution_brute(n, derangements) == naive, (n, derangements)


@pytest.mark.parametrize("n", range(1, 8))
def test_identity_lhs_matches_naive_loop(n):
    assert set(NAIVE_LHS) == set(sp.IDENTITY_IDS)
    for identity_id, (family, term) in NAIVE_LHS.items():
        if n < sp.IDENTITY_MIN_N[identity_id]:
            continue
        report = sp.identity_check(identity_id, n)
        assert report.lhs == naive_sum(family, n, term), (identity_id, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_family_selects_its_stream(n):
    assert set(sp._IN_FAMILY) <= set(FAMILIES)
    for family in sp._IN_FAMILY:
        for i in range(1, n + 1) if family.endswith("_i") else [None]:
            naive = naive_sum(family, n, full_key, i)
            assert sp._weighted_sum(family, sp._tally(n), key_weight, i) == naive, (family, n, i)


def test_empty_permutation_sums_to_one():
    assert sp.cdes_distribution_brute(0) == ONE
    assert sp.cdes_distribution_brute(0, derangements=True) == ONE


def test_past_the_cap_is_refused_before_any_walk(walks):
    n = CAPS["brute force"] + 1
    with pytest.raises(ValueError, match="capped"):
        sp.statistic_poly(n, 1)
    with pytest.raises(ValueError, match="capped"):
        sp.statistic_poly(n, 2, derangements=True)
    for derangements in (False, True):
        with pytest.raises(ValueError, match="capped"):
            sp.cdes_distribution_brute(n, derangements)
    for identity_id in sp.IDENTITY_IDS:
        with pytest.raises(ValueError, match="capped"):
            sp.identity_check(identity_id, n)
    assert not walks


def test_tally_folds_read_their_record_not_the_cache(monkeypatch):
    # a fold that read the tally through the cache, or through a public sum,
    # would build it again in the caller of a pooled run
    tallies = {n: sp._tally(n) for n in range(1, 7)}
    sp.statistic_poly.cache_clear()

    def refused(n):
        raise AssertionError(f"the tally of S_{n} was read off the cache")

    monkeypatch.setattr(sp, "_tally", refused)
    readers = {c: check for c, check in verify.CHECKS.items() if check.walks == ("tally",)}
    assert len(readers) == 13
    for check_id, check in readers.items():
        for n in range(check.min_n, 7):
            assert check.fn(n, verify.DEFAULT_SEED, tallies[n]) is None, (check_id, n)


def test_verification_walks_s_n_once_per_size(walks, monkeypatch):
    # every walk of S_n goes through perms._all_words, the walk of verify on
    # plain words and every public stream of S_n alike; the five suites make
    # one per size, the walk of verify that the involution checks fold their
    # laws off.  The walk "tally" of verify, which the brute-force checks
    # fold off, goes through the cache of statpolys: the four suites that
    # read it build it once per size between them, and it walks no S_n
    walked = Counter()
    real_all = perms._all_words
    monkeypatch.setattr(perms, "_all_words", lambda n: walked.update([n]) or real_all(n))
    for suite in ("theorem-p", "lemmas", "theorem-b", "identities", "involutions"):
        assert run_verification(suite, n_max=6).exit_code == 0, suite
    assert not walks
    assert walked == Counter({n: 1 for n in range(1, 7)})
    assert sp._tally.cache_info().currsize == 6
    sp.statistic_poly.cache_clear()
    walked.clear()
    sp.cdes_distribution_brute(6)
    assert not walks and not walked
