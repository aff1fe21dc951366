"""Fault injection into the ten ``bijections`` checks of ``verify``.

Each case replaces one fast path (``klazar_count``, ``b20_count``,
``gamma``, ``theta``, ``gamma_inv``, ``theta_inv`` or ``match_stats``) by
one that is wrong at a chosen object, runs ``verify bijections --n-max 3``
through the CLI and compares every failure it reports, and the downline
note at n = 3, with recorded texts.  The texts print signed permutations
and matchings, so they also pin ``str`` of both.
"""

import json
from dataclasses import replace

import pytest

from cycledescent import bijections as bj
from cycledescent import matchings as mt
from cycledescent import statpolys as sp
from cycledescent.cli import main
from cycledescent.verify import SUITES

REAL = {
    "klazar_count": sp.klazar_count,
    "b20_count": sp.b20_count,
    "gamma": bj.gamma,
    "theta": bj.theta,
    "gamma_inv": bj.gamma_inv,
    "theta_inv": bj.theta_inv,
    "match_stats": mt.match_stats,
}
HOME = {"klazar_count": sp, "b20_count": sp, "match_stats": mt}

P = bj.parse_signed
S0, S1, S2 = P("(1+ 2+ 3+)"), P("(1+ 3+ 2+)"), P("(1+ 3- 2+)")
# a cyclic object of size 4, whose image no object of size 3 has
FOREIGN = P("(1+ 4- 2+ 3+)")


def collide(name, a, b):
    """``name`` sends b where it sends a."""
    real = REAL[name]
    return lambda s: real(a) if s == b else real(s)


def foreign(name, a):
    """``name`` sends a to the image of FOREIGN."""
    real = REAL[name]
    return lambda s: real(FOREIGN) if s == a else real(s)


def second_call_wrong(m0):
    """``gamma_inv`` is right on m0 once, then drops its signs."""
    real, calls = REAL["gamma_inv"], []

    def fake(m):
        if m == m0:
            calls.append(m)
            if len(calls) == 2:
                return bj.SignedPermutation(perm=real(m).perm, neg=frozenset())
        return real(m)

    return fake


def drop_signs(s0):
    real = REAL["theta_inv"]

    def fake(m):
        out = real(m)
        return bj.SignedPermutation(perm=out.perm, neg=frozenset()) if out == s0 else out

    return fake


def bump_stat(field, n):
    real = REAL["match_stats"]

    def fake(m):
        out = real(m)
        return replace(out, **{field: getattr(out, field) + 1}) if m.n == n else out

    return fake


# case id -> (name of the faulty fast path, its fake, failures of
# ``verify bijections --n-max 3`` as (check, n, witness), downline note at
# n = 3 or None where it is the unfaulted one)
CASES = {
    "klazar-count": (
        "klazar_count", lambda: lambda n: REAL["klazar_count"](n) + (n == 3),
        [("count-callan", 3, "matchings 7, recurrence 8, signed perms 7")],
        None,
    ),
    "b20-count": (
        "b20_count", lambda: lambda n: REAL["b20_count"](n) - (n == 3),
        [("count-callan-no-vertical", 3, "matchings 3, recurrence 2, signed perms 3")],
        None,
    ),
    "gamma-collides": (
        "gamma", lambda: collide("gamma", S0, S1),
        [
            ("gamma-image", 3, "gamma not injective: 7 inputs, 6 images"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
            ("derangement-restriction", 3, "3 inputs, 2 images, 3 targets"),
        ],
        None,
    ),
    "gamma-leaves-the-target": (
        "gamma", lambda: foreign("gamma", S2),
        [
            ("gamma-image", 3, "image has 7 matchings, target 7"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("derangement-restriction", 3, "3 inputs, 3 images, 3 targets"),
        ],
        None,
    ),
    "theta-collides": (
        "theta", lambda: collide("theta", S0, S1),
        [
            ("theta-image", 3, "theta not injective on 3 inputs"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
        ],
        None,
    ),
    "theta-leaves-the-target": (
        "theta", lambda: foreign("theta", S2),
        [
            ("theta-image", 3, "image has 3 matchings, target 3"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
        ],
        None,
    ),
    "gamma-inv-reverse": (
        "gamma_inv", lambda: second_call_wrong(REAL["gamma"](S2)),
        [
            (
                "gamma-roundtrip", 3,
                "reverse round trip broke at (1,0)-(2,0) (1,1)-(3,1) (2,1)-(3,0)",
            )
        ],
        None,
    ),
    "theta-inv": (
        "theta_inv", lambda: drop_signs(S2),
        [("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)")],
        None,
    ),
    "match-stats-com": (
        "match_stats", lambda: bump_stat("com", 2),
        [
            ("theta-image", 2, "image has 1 matchings, target 0"),
            ("statistic-transport", 2, "(1+)(2+): com=3 cyc=2 ver=2 fix=2"),
        ],
        None,
    ),
    "match-stats-down": (
        "match_stats", lambda: bump_stat("down", 3),
        [("downline-per-cycle", 3, "(1+ 2+ 3+): down=2, neg=0, bump=1")],
        "row-of-partner form holds for 2/7 signed permutations;"
        " 3 failing inputs are cyclic; first failure (1+ 2+)(3+)",
    ),
}
UNFAULTED_NOTE = (
    "row-of-partner form holds for 5/7 signed permutations;"
    " 0 failing inputs are cyclic; first failure (1+)(2+)(3+)"
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_is_reported_with_its_exact_text(case, monkeypatch, capsys):
    name, make, failures, note = CASES[case]
    monkeypatch.setattr(HOME.get(name, bj), name, make())
    code = main(["verify", "bijections", "--n-max", "3", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert [(f["check"], f["n"], f["witness"]) for f in data["failures"]] == failures
    notes = [x["text"] for x in data["notes"] if x["n"] == 3]
    assert notes == [note or UNFAULTED_NOTE]
    assert code == 1


def test_every_bijections_check_is_reached():
    reached = {check for case in CASES.values() for check, _, _ in case[2]}
    reached.add("downline-global-report")  # its note changes in match-stats-down
    assert reached == set(SUITES["bijections"])
