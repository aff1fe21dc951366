"""The ``bijections`` suite walks each stream of a size once.

Its ten checks read their outcomes off one walk of the negative cdes
permutations and one walk of the Callan matchings per size, so gamma runs
once per signed object (the forward round trip, the images, the
statistics) and once per Callan matching (the reverse round trip).
"""

from cycledescent import bijections as bj
from cycledescent import matchings as mt
from cycledescent.verify import run_verification


def test_each_stream_is_walked_once_per_size(monkeypatch):
    real_signed, real_matchings, real_gamma = (
        bj.enumerate_negative_cdes, mt.enumerate_matchings, bj.gamma
    )
    signed, matchings, images = [], [], []

    def walk_signed(n, flt="all"):
        signed.append((n, flt))
        return real_signed(n, flt)

    def walk_matchings(n, flt="all"):
        matchings.append((n, flt))
        return real_matchings(n, flt)

    def gamma(s):
        images.append(s)
        return real_gamma(s)

    monkeypatch.setattr(bj, "enumerate_negative_cdes", walk_signed)
    monkeypatch.setattr(mt, "enumerate_matchings", walk_matchings)
    monkeypatch.setattr(bj, "gamma", gamma)
    summary = run_verification("bijections", n_max=6)
    assert summary.exit_code == 0
    assert sorted(signed) == [(n, "all") for n in range(1, 7)]
    assert sorted(matchings) == [(n, "callan") for n in range(1, 7)]
    objects = sum(1 for n in range(1, 7) for _ in real_signed(n))
    callan = sum(1 for n in range(1, 7) for _ in real_matchings(n, "callan"))
    assert len(images) == objects + callan


def test_parallel_bijections_match_serial():
    serial = run_verification("bijections", n_max=6)
    parallel = run_verification("bijections", n_max=6, jobs=2)
    assert parallel.checks_run == serial.checks_run
    assert parallel.failures == serial.failures
    assert parallel.notes == serial.notes
    assert serial.exit_code == 0
