"""The shared tally of S_n against naive loops, and the one-walk guarantee.

Every brute-force sum in ``statpolys`` reads one tally per size.  These
tests recompute each sum with a loop over the family's own enumeration
stream, written here, and check that a verification run enumerates each
S_n once.
"""

from collections import Counter

import pytest

from cycledescent import statpolys as sp
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
            assert sp._weighted_sum(family, n, key_weight, i) == naive, (family, n, i)


def test_empty_permutation_sums_to_one():
    assert sp.cdes_distribution_brute(0) == ONE
    assert sp.cdes_distribution_brute(0, derangements=True) == ONE


def test_past_the_cap_is_refused_before_any_walk(walks):
    n = sp.BRUTE_CAP + 1
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


def test_verification_walks_each_size_once(walks):
    for suite in ("theorem-p", "lemmas", "theorem-b", "identities", "involutions"):
        assert run_verification(suite, n_max=6).exit_code == 0, suite
    assert walks == Counter({("all", n): 1 for n in range(1, 7)})
    sp.statistic_poly.cache_clear()
    sp.cdes_distribution_brute(6)
    assert walks[("all", 6)] == 2
