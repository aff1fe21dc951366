"""Fault injection into the ten ``bijections`` checks of ``verify``.

Each case replaces one fast path (``klazar_count``, ``b20_count``, the
core of ``match_stats``, the component unfold ``_unfold``, the core stream
of signed objects, or the core of ``gamma`` or ``gamma_inv``, which the
walks call in place of the validating public maps and the object streams;
theta is gamma on one cycle, so a fault of a gamma core at a cyclic
object is a fault of theta) by one that is wrong at a chosen object, runs
``verify bijections --n-max 3`` through the CLI and compares every failure
it reports, and the downline note at n = 3, with recorded texts.  The
texts print signed permutations and matchings, so they also pin ``str`` of
both.
"""

import json

import pytest
from deadline import deadline

from cycledescent import bijections as bj
from cycledescent import matchings as mt
from cycledescent import statpolys as sp
from cycledescent.cli import main
from cycledescent.perms import standard_cycles
from cycledescent.verify import SUITES

REAL = {
    "klazar_count": sp.klazar_count,
    "b20_count": sp.b20_count,
    "_gamma_core": bj._gamma_core,
    "_gamma_inv_core": bj._gamma_inv_core,
    "_unfold": bj._unfold,
    "_match_stats_core": mt._match_stats_core,
    "_negative_cdes_core": bj._negative_cdes_core,
}
HOME = {"klazar_count": sp, "b20_count": sp, "_match_stats_core": mt}
STATS = ("arc", "up", "down", "ver", "com")  # the fields the stats core gives, in order

P = bj.parse_signed
S0, S1, S2 = P("(1+ 2+ 3+)"), P("(1+ 3+ 2+)"), P("(1+ 3- 2+)")
# a cyclic object of size 4, whose image no object of size 3 has
FOREIGN = P("(1+ 4- 2+ 3+)")
# an object of size 3 that is not cyclic
TWO_CYCLES = P("(1+)(2+ 3+)")


def plain(s):
    """The plain data the core of gamma reads for s: the standard cycles,
    the negative set and n."""
    return standard_cycles(s.perm).cycles, s.neg, s.n


def collide(a, b):
    """The core of gamma sends b where it sends a."""
    real = REAL["_gamma_core"]
    return lambda *args: real(*plain(a)) if args == plain(b) else real(*args)


def foreign(a):
    """The core of gamma sends a to the image of FOREIGN."""
    real = REAL["_gamma_core"]
    return lambda *args: real(*plain(FOREIGN)) if args == plain(a) else real(*args)


def no_involution(a):
    """The core of gamma pairs the top vertex of the last slot of a's image
    with the bottom vertex of slot 1, whose own partner stays as it was: a
    partner list that is not an involution."""
    real = REAL["_gamma_core"]
    return lambda *args: real(*args)[:-1] + (2,) if args == plain(a) else real(*args)


def key_out_of_range(a):
    """The core of gamma gives a's image with the partner of key 2 (the
    bottom vertex of slot 1) set to 2n + 5, a key of no vertex of 1..n."""
    real = REAL["_gamma_core"]

    def fake(*args):
        out = real(*args)
        return out[:2] + (2 * a.n + 5,) + out[3:] if args == plain(a) else out

    return fake


def second_call_wrong(m0):
    """The core of ``gamma_inv`` is right on m0 once, then drops its signs."""
    real, calls = REAL["_gamma_inv_core"], []

    def fake(partner):
        if partner == m0.partner:
            calls.append(partner)
            if len(calls) == 2:
                return real(partner)[0], frozenset()
        return real(partner)

    return fake


def drop_signs(s0):
    """The core of ``gamma_inv`` gives s0 back without its signs."""
    real = REAL["_gamma_inv_core"]

    def fake(partner):
        cycles, neg = real(partner)
        return (cycles, frozenset()) if (cycles, neg, s0.n) == plain(s0) else (cycles, neg)

    return fake


def repeat_in_3_cycles():
    """``_unfold`` gives each 3-cycle with its second value in place of its
    third, which no permutation has as a cycle."""
    real = REAL["_unfold"]

    def fake(partner, start, seen):
        cycle, neg = real(partner, start, seen)
        return (cycle[:2] + cycle[1:2] if len(cycle) == 3 else cycle), neg

    return fake


def bump_stat(field, n):
    """The stats core counts one more of ``field`` on every matching of size n."""
    real, j = REAL["_match_stats_core"], STATS.index(field)

    def fake(partner):
        out = real(partner)
        return out[:j] + (out[j] + 1,) + out[j + 1 :] if len(partner) == 2 * n + 2 else out

    return fake


def repeat_a_derangement(s0):
    """The core stream of signed objects gives s0 twice."""
    real = REAL["_negative_cdes_core"]

    def fake(n, flt="all"):
        for word, cycles, fix, negs in real(n, flt):
            if word == s0.perm.word:
                negs = [x for neg in negs for x in ([neg, neg] if neg == s0.neg else [neg])]
            yield word, cycles, fix, negs

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
        "_gamma_core", lambda: collide(S0, S1),
        [
            ("gamma-image", 3, "gamma not injective: 7 inputs, 6 images"),
            ("theta-image", 3, "theta not injective on 3 inputs"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
            ("derangement-restriction", 3, "3 inputs, 2 images, 3 targets"),
        ],
        None,
    ),
    "gamma-leaves-the-target": (
        "_gamma_core", lambda: foreign(S2),
        [
            ("gamma-image", 3, "image has 7 matchings, target 7"),
            ("theta-image", 3, "image has 3 matchings, target 3"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("derangement-restriction", 3, "3 inputs, 3 images, 3 targets"),
        ],
        None,
    ),
    # theta is gamma on one cycle: these two fault the gamma core at other
    # cyclic objects, where the downlines of the wrong image do not match
    # the object's signs, so the per-cycle downline form fails as well
    "theta-collides": (
        "_gamma_core", lambda: collide(S1, S2),
        [
            ("gamma-image", 3, "gamma not injective: 7 inputs, 6 images"),
            ("theta-image", 3, "theta not injective on 3 inputs"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("derangement-restriction", 3, "3 inputs, 2 images, 3 targets"),
            ("downline-per-cycle", 3, "(1+ 3- 2+): down=1, neg=1, bump=1"),
        ],
        "row-of-partner form holds for 4/7 signed permutations;"
        " 1 failing inputs are cyclic; first failure (1+)(2+)(3+)",
    ),
    "theta-leaves-the-target": (
        "_gamma_core", lambda: foreign(S1),
        [
            ("gamma-image", 3, "image has 7 matchings, target 7"),
            ("theta-image", 3, "image has 3 matchings, target 3"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
            ("derangement-restriction", 3, "3 inputs, 3 images, 3 targets"),
            ("downline-per-cycle", 3, "(1+ 3+ 2+): down=2, neg=0, bump=1"),
        ],
        "row-of-partner form holds for 4/7 signed permutations;"
        " 1 failing inputs are cyclic; first failure (1+)(2+)(3+)",
    ),
    "gamma-inv-reverse": (
        "_gamma_inv_core", lambda: second_call_wrong(bj.gamma(S2)),
        [
            (
                "gamma-roundtrip", 3,
                "reverse round trip broke at (1,0)-(2,0) (1,1)-(3,1) (2,1)-(3,0)",
            )
        ],
        None,
    ),
    "theta-inv": (
        "_gamma_inv_core", lambda: drop_signs(S2),
        [
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
        ],
        None,
    ),
    # the walk from slot 2 of the image of (1+)(2+ 3+) enters slot 1 and
    # then slot 1 again, never coming back to (2, 1): it stops there, and
    # its cycle fails the forward trip; theta's trip runs on cyclic
    # objects only, and the image key is the true image's
    "gamma-no-involution": (
        "_gamma_core", lambda: no_involution(TWO_CYCLES),
        [("gamma-roundtrip", 3, "round trip broke at (1+)(2+ 3+)")],
        None,
    ),
    # a key outside 0..2n+1 names no slot, so the walks cannot follow it:
    # the object fails both round trips and gives no image and no edge
    # counts, so each image check it is an input of names its missing image
    # (not a collision) and its downline form is counted neither way
    "gamma-key-out-of-range": (
        "_gamma_core", lambda: key_out_of_range(S0),
        [
            ("gamma-image", 3, "1 of 7 inputs have no image: a key outside 0..7"),
            ("theta-image", 3, "1 of 3 inputs have no image: a key outside 0..7"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 2+ 3+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 2+ 3+)"),
            ("derangement-restriction", 3, "1 of 3 inputs have no image: a key outside 0..7"),
        ],
        "row-of-partner form holds for 4/7 signed permutations;"
        " 0 failing inputs are cyclic; first failure (1+)(2+)(3+)",
    ),
    # an object with a fixed point and two cycles is an input of gamma-image
    # alone: theta-image and derangement-restriction still hold
    "gamma-key-out-of-range-two-cycles": (
        "_gamma_core", lambda: key_out_of_range(TWO_CYCLES),
        [
            ("gamma-image", 3, "1 of 7 inputs have no image: a key outside 0..7"),
            ("gamma-roundtrip", 3, "round trip broke at (1+)(2+ 3+)"),
        ],
        None,
    ),
    # a fault in the code the walks run is a failing check (exit 1), not
    # bad input (exit 2)
    "unfold-repeats-a-value": (
        "_unfold", repeat_in_3_cycles,
        [
            ("gamma-roundtrip", 3, "round trip broke at (1+ 2+ 3+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 2+ 3+)"),
        ],
        None,
    ),
    "match-stats-com": (
        "_match_stats_core", lambda: bump_stat("com", 2),
        [
            ("theta-image", 2, "image has 1 matchings, target 0"),
            ("statistic-transport", 2, "(1+)(2+): com=3 cyc=2 ver=2 fix=2"),
        ],
        None,
    ),
    "match-stats-down": (
        "_match_stats_core", lambda: bump_stat("down", 3),
        [("downline-per-cycle", 3, "(1+ 2+ 3+): down=2, neg=0, bump=1")],
        "row-of-partner form holds for 2/7 signed permutations;"
        " 3 failing inputs are cyclic; first failure (1+ 2+)(3+)",
    ),
    # the fixed points of pi go to the vertical edges of gamma(pi)
    "match-stats-ver": (
        "_match_stats_core", lambda: bump_stat("ver", 2),
        [("statistic-transport", 2, "(1+)(2+): com=2 cyc=2 ver=3 fix=2")],
        None,
    ),
    # one derangement twice: its image is not new, so the image set still
    # equals the target set, and only the count of inputs shows the fault
    "derangement-given-twice": (
        "_negative_cdes_core", lambda: repeat_a_derangement(S2),
        [
            ("count-callan", 3, "matchings 7, recurrence 7, signed perms 8"),
            ("count-callan-no-vertical", 3, "matchings 3, recurrence 3, signed perms 4"),
            ("gamma-image", 3, "gamma not injective: 8 inputs, 7 images"),
            ("theta-image", 3, "theta not injective on 4 inputs"),
            ("derangement-restriction", 3, "4 inputs, 3 images, 3 targets"),
        ],
        "row-of-partner form holds for 6/8 signed permutations;"
        " 0 failing inputs are cyclic; first failure (1+)(2+)(3+)",
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
    # a fault that sends a walk round forever fails here, not hangs the run
    with deadline(2):
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
