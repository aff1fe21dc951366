"""Fault injection into the ten ``bijections`` checks of ``verify``.

Each case replaces one fast path (``klazar_count``, ``b20_count``, the
edge kernel of ``match_stats``, the component unfold ``_unfold``, the core
stream of signed objects, or the core of ``gamma`` or ``gamma_inv``, which
the walks call in place of the validating public maps and the object streams;
theta is gamma on one cycle, so a fault of a gamma core at a cyclic
object is a fault of theta) by one that is wrong at a chosen object, runs
``verify bijections --n-max 3`` through the CLI and compares every failure
it reports, and the downline note at n = 3, with recorded texts.  The
texts print signed permutations, so they also pin their ``str``.  The
signed walk of n = 3, the largest size, runs in three shards by first
letter, so the texts of n = 3 also pin the order in which they merge.

The three image checks hold by counting, each on the premises of
gamma-image: every image is read and is a Callan matching's partner list,
every forward trip holds and the counts agree.  So a fault that breaks a
premise fails all three, naming the first premise that fails, and
derangement-restriction adds the transport rule ver = fix.  The signed
walk reads com off the inverse core's cycles, or counts the component
walks of ``matchings`` where the inverse core raised, so com = cyc fails
only where a trip fails: theta-image is the fold of gamma-image, and a
test of the fold reads it off hand-built records.  An image too short to
hold key 3 is no image, as is one with a key that names no slot.  No walk
runs the reverse trip, so an inverse core that is wrong only on a second
call with the same partner list goes unseen.
"""

import json

import pytest
from deadline import deadline

from cycledescent import bijections as bj
from cycledescent import matchings as mt
from cycledescent import statpolys as sp
from cycledescent import verify
from cycledescent.cli import main
from cycledescent.perms import standard_cycles
from cycledescent.verify import SUITES

REAL = {
    "klazar_count": sp.klazar_count,
    "b20_count": sp.b20_count,
    "_gamma_core": bj._gamma_core,
    "_gamma_inv_core": bj._gamma_inv_core,
    "_unfold": bj._unfold,
    "_edge_counts": mt._edge_counts,
    "_negative_cdes_core": bj._negative_cdes_core,
}
HOME = {"klazar_count": sp, "b20_count": sp, "_edge_counts": mt}
EDGES = ("up", "down", "ver")  # the edge classes the edge kernel counts, in order

P = bj.parse_signed
S0, S1, S2 = P("(1+ 2+ 3+)"), P("(1+ 3+ 2+)"), P("(1+ 3- 2+)")
# a cyclic object of size 4, whose image no object of size 3 has
FOREIGN = P("(1+ 4- 2+ 3+)")
# objects of size 3 that are not cyclic
TWO_CYCLES, IDENTITY = P("(1+)(2+ 3+)"), P("(1+)(2+)(3+)")

# the texts of the image checks for a missing image, an image that is no
# Callan matching (the witness and a closing parenthesis follow) and a
# broken forward trip (the witness follows)
NO_IMAGE = "1 of 7 inputs have no image: a key that names no slot"
NO_CALLAN = "1 of 7 images are no Callan matching; the first is gamma("
NOT_SHOWN_INJECTIVE = "gamma not shown injective: round trip broke at "
TWO_NO_CALLAN = "2 of 7 images are no Callan matching; the first is gamma((1+)(2+)(3+))"


def plain(s):
    """The plain data the core of gamma reads for s: the standard cycles,
    the negative set and n."""
    return standard_cycles(s.perm).cycles, s.neg, s.n


def collide(a, b):
    """The core of gamma sends b where it sends a."""
    real = REAL["_gamma_core"]
    return lambda *args: real(*plain(a)) if args == plain(b) else real(*args)


def foreign(*objects):
    """The core of gamma sends each of ``objects`` to the image of FOREIGN."""
    real, faulted = REAL["_gamma_core"], {plain(a) for a in objects}
    return lambda *args: real(*plain(FOREIGN)) if args in faulted else real(*args)


def no_involution(a):
    """The core of gamma pairs the top vertex of the last slot of a's image
    with the bottom vertex of slot 1, whose own partner stays as it was: a
    partner list that is not an involution."""
    real = REAL["_gamma_core"]
    return lambda *args: real(*args)[:-1] + (2,) if args == plain(a) else real(*args)


def set_entry(a, k, q):
    """The core of gamma gives a's image with entry k of its partner list,
    the partner of key k, set to q."""
    real = REAL["_gamma_core"]

    def fake(*args):
        out = real(*args)
        return out[:k] + (q,) + out[k + 1 :] if args == plain(a) else out

    return fake


def give(a, partner):
    """The core of gamma gives a the partner list ``partner``."""
    real = REAL["_gamma_core"]
    return lambda *args: partner if args == plain(a) else real(*args)


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


def bump_edges(field, n):
    """The edge kernel counts one more of ``field`` on every matching of size n."""
    real, j = REAL["_edge_counts"], EDGES.index(field)

    def fake(partner):
        out = real(partner)
        return out[:j] + (out[j] + 1,) + out[j + 1 :] if len(partner) == 2 * n + 2 else out

    return fake


def extra_cycle(n):
    """The core of ``gamma_inv`` gives one cycle more, its last one again,
    on every partner list of size n."""
    real = REAL["_gamma_inv_core"]

    def fake(partner):
        cycles, neg = real(partner)
        return (cycles + cycles[-1:], neg) if len(partner) == 2 * n + 2 else (cycles, neg)

    return fake


def refuse(s0):
    """The core of ``gamma_inv`` raises on the image of s0, whose components
    the component walks then count."""
    real, image = REAL["_gamma_inv_core"], bj.gamma(s0).partner

    def fake(partner):
        if partner == image:
            raise ValueError("refused")
        return real(partner)

    return fake


def repeat_a_derangement(s0):
    """The core stream of signed objects gives s0 twice."""
    real = REAL["_negative_cdes_core"]

    def fake(n, flt="all", letter=None):
        for word, cycles, fix, negs in real(n, flt, letter):
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
            ("gamma-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 3+ 2+)"),
            ("theta-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 3+ 2+)"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
            ("derangement-restriction", 3, NOT_SHOWN_INJECTIVE + "(1+ 3+ 2+)"),
        ],
        None,
    ),
    "gamma-leaves-the-target": (
        "_gamma_core", lambda: foreign(S2),
        [
            ("gamma-image", 3, NO_CALLAN + "(1+ 3- 2+))"),
            ("theta-image", 3, NO_CALLAN + "(1+ 3- 2+))"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("derangement-restriction", 3, NO_CALLAN + "(1+ 3- 2+))"),
        ],
        None,
    ),
    # n = 3 is the largest size, so its signed walk runs in three shards, by
    # first letter: the identity (word 123) is in the first, (1+ 3- 2+)
    # (word 312) in the last.  The shards merge in the order of the stream,
    # so each check names the first faulted object that it reads
    "gamma-leaves-the-target-in-two-shards": (
        "_gamma_core", lambda: foreign(IDENTITY, S2),
        [
            ("gamma-image", 3, TWO_NO_CALLAN),
            ("theta-image", 3, TWO_NO_CALLAN),
            ("gamma-roundtrip", 3, "round trip broke at (1+)(2+)(3+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("statistic-transport", 3, "(1+)(2+)(3+): com=1 cyc=3 ver=0 fix=3"),
            ("derangement-restriction", 3, TWO_NO_CALLAN),
        ],
        None,
    ),
    # theta is gamma on one cycle: these two fault the gamma core at other
    # cyclic objects, where the downlines of the wrong image do not match
    # the object's signs, so the per-cycle downline form fails as well
    "theta-collides": (
        "_gamma_core", lambda: collide(S1, S2),
        [
            ("gamma-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 3- 2+)"),
            ("theta-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 3- 2+)"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("derangement-restriction", 3, NOT_SHOWN_INJECTIVE + "(1+ 3- 2+)"),
            ("downline-per-cycle", 3, "(1+ 3- 2+): down=1, neg=1, bump=1"),
        ],
        "row-of-partner form holds for 4/7 signed permutations;"
        " 1 failing inputs are cyclic; first failure (1+)(2+)(3+)",
    ),
    "theta-leaves-the-target": (
        "_gamma_core", lambda: foreign(S1),
        [
            ("gamma-image", 3, NO_CALLAN + "(1+ 3+ 2+))"),
            ("theta-image", 3, NO_CALLAN + "(1+ 3+ 2+))"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3+ 2+)"),
            ("derangement-restriction", 3, NO_CALLAN + "(1+ 3+ 2+))"),
            ("downline-per-cycle", 3, "(1+ 3+ 2+): down=2, neg=0, bump=1"),
        ],
        "row-of-partner form holds for 4/7 signed permutations;"
        " 1 failing inputs are cyclic; first failure (1+)(2+)(3+)",
    ),
    # given up: the image checks hold by counting, and no walk runs the
    # reverse trip, so an inverse core that is wrong only on its second call
    # with the same partner list is called once and never seen
    "gamma-inv-reverse": (
        "_gamma_inv_core", lambda: second_call_wrong(bj.gamma(S2)), [], None,
    ),
    "theta-inv": (
        "_gamma_inv_core", lambda: drop_signs(S2),
        [
            ("gamma-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 3- 2+)"),
            ("theta-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 3- 2+)"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("derangement-restriction", 3, NOT_SHOWN_INJECTIVE + "(1+ 3- 2+)"),
        ],
        None,
    ),
    # the walk from slot 2 of the image of (1+)(2+ 3+) enters slot 1 and
    # then slot 1 again, never coming back to (2, 1): it stops there, and
    # its cycle fails the forward trip; theta's trip runs on cyclic
    # objects only, and the image, which is no involution, is no Callan
    # matching's partner list
    "gamma-no-involution": (
        "_gamma_core", lambda: no_involution(TWO_CYCLES),
        [
            ("gamma-image", 3, NO_CALLAN + "(1+)(2+ 3+))"),
            ("theta-image", 3, NO_CALLAN + "(1+)(2+ 3+))"),
            ("gamma-roundtrip", 3, "round trip broke at (1+)(2+ 3+)"),
            ("derangement-restriction", 3, NO_CALLAN + "(1+)(2+ 3+))"),
        ],
        None,
    ),
    # a key outside 0..2n+1 (here the partner of key 2, the bottom vertex of
    # slot 1, set to 2n + 5) names no slot, so the walks cannot follow it:
    # the object fails both round trips and gives no image and no edge
    # counts, so each image check names the missing image (not a failed
    # trip) and its downline form is counted neither way
    "gamma-key-out-of-range": (
        "_gamma_core", lambda: set_entry(S0, 2, 11),
        [
            ("gamma-image", 3, NO_IMAGE),
            ("theta-image", 3, NO_IMAGE),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 2+ 3+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 2+ 3+)"),
            ("derangement-restriction", 3, NO_IMAGE),
        ],
        "row-of-partner form holds for 4/6 signed permutations;"
        " 0 failing inputs are cyclic; first failure (1+)(2+)(3+)",
    ),
    # an object with a fixed point and two cycles: theta-image and
    # derangement-restriction rest on gamma-image, so they fail with it
    "gamma-key-out-of-range-two-cycles": (
        "_gamma_core", lambda: set_entry(TWO_CYCLES, 2, 11),
        [
            ("gamma-image", 3, NO_IMAGE),
            ("theta-image", 3, NO_IMAGE),
            ("gamma-roundtrip", 3, "round trip broke at (1+)(2+ 3+)"),
            ("derangement-restriction", 3, NO_IMAGE),
        ],
        # the object with no image has no edge counts to read
        "row-of-partner form holds for 5/6 signed permutations;"
        " 0 failing inputs are cyclic; first failure (1+)(2+)(3+)",
    ),
    # a key past 255 names no slot and no byte: no image, as above, and a
    # failing check (exit 1), not bad input (exit 2).  The inverse core
    # never follows the partner of key 3, the top vertex of slot 1, so it
    # gives the object back, and the trip holds
    "gamma-key-past-a-byte": (
        "_gamma_core", lambda: set_entry(S0, 3, 300),
        [
            ("gamma-image", 3, NO_IMAGE),
            ("theta-image", 3, NO_IMAGE),
            ("derangement-restriction", 3, NO_IMAGE),
        ],
        "row-of-partner form holds for 4/6 signed permutations;"
        " 0 failing inputs are cyclic; first failure (1+)(2+)(3+)",
    ),
    # the partner of key 7, the top vertex of slot 3, is read by no walk:
    # the forward trip and the statistics hold, and the validity test of the
    # whole partner list is what tells the wrong image from the true one
    "gamma-unread-entry": (
        "_gamma_core", lambda: set_entry(IDENTITY, 7, 0),
        [
            ("gamma-image", 3, NO_CALLAN + "(1+)(2+)(3+))"),
            ("theta-image", 3, NO_CALLAN + "(1+)(2+)(3+))"),
            ("derangement-restriction", 3, NO_CALLAN + "(1+)(2+)(3+))"),
        ],
        None,
    ),
    # key 5 partnered with key 0, below it: no two inputs share an image,
    # and the forward trip holds, so the image checks name a wrong image
    "gamma-entry-below-its-key": (
        "_gamma_core", lambda: set_entry(TWO_CYCLES, 5, 0),
        [
            ("gamma-image", 3, NO_CALLAN + "(1+)(2+ 3+))"),
            ("theta-image", 3, NO_CALLAN + "(1+)(2+ 3+))"),
            ("derangement-restriction", 3, NO_CALLAN + "(1+)(2+ 3+))"),
        ],
        None,
    ),
    # an involution of the keys with two fixed keys, 6 and 7, the vertices
    # of slot 3, which loses a vertical: no Callan matching's partner list
    "gamma-fixed-key": (
        "_gamma_core", lambda: give(IDENTITY, (0, 0, 3, 2, 5, 4, 6, 7)),
        [
            ("gamma-image", 3, NO_CALLAN + "(1+)(2+)(3+))"),
            ("theta-image", 3, NO_CALLAN + "(1+)(2+)(3+))"),
            ("gamma-roundtrip", 3, "round trip broke at (1+)(2+)(3+)"),
            ("statistic-transport", 3, "(1+)(2+)(3+): com=3 cyc=3 ver=2 fix=3"),
            ("derangement-restriction", 3, NO_CALLAN + "(1+)(2+)(3+))"),
        ],
        None,
    ),
    # a perfect matching with the upline (1, 0)-(2, 1) and the downline
    # (2, 0)-(1, 1) in place of two verticals: no Callan matching, and one
    # that the row-of-partner downline form holds on, unlike the true image
    "gamma-upline": (
        "_gamma_core", lambda: give(IDENTITY, (0, 0, 5, 4, 3, 2, 7, 6)),
        [
            ("gamma-image", 3, NO_CALLAN + "(1+)(2+)(3+))"),
            ("theta-image", 3, NO_CALLAN + "(1+)(2+)(3+))"),
            ("gamma-roundtrip", 3, "round trip broke at (1+)(2+)(3+)"),
            ("statistic-transport", 3, "(1+)(2+)(3+): com=2 cyc=3 ver=1 fix=3"),
            ("derangement-restriction", 3, NO_CALLAN + "(1+)(2+)(3+))"),
        ],
        "row-of-partner form holds for 6/7 signed permutations;"
        " 0 failing inputs are cyclic; first failure (1+)(2+ 3+)",
    ),
    # a key that is no int (3.0, equal to the true key 3) names no slot: the
    # inverse core, which only compares it, gives the object back, so the
    # trip holds, but the edge kernel cannot read its class, so the image
    # is missing, and a failing check (exit 1), not a crash
    "gamma-float-key": (
        "_gamma_core", lambda: set_entry(IDENTITY, 2, 3.0),
        [
            ("gamma-image", 3, NO_IMAGE),
            ("theta-image", 3, NO_IMAGE),
            ("derangement-restriction", 3, NO_IMAGE),
        ],
        # the object with no image has no edge counts to read
        "row-of-partner form holds for 5/6 signed permutations;"
        " 0 failing inputs are cyclic; first failure (1+)(2+ 3+)",
    ),
    # an inverse core that raises breaks the trip, and the component walks,
    # which can follow every key, count the image's components: no image is
    # missing
    "gamma-inv-raises": (
        "_gamma_inv_core", lambda: refuse(S2),
        [
            ("gamma-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 3- 2+)"),
            ("theta-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 3- 2+)"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 3- 2+)"),
            ("derangement-restriction", 3, NOT_SHOWN_INJECTIVE + "(1+ 3- 2+)"),
        ],
        None,
    ),
    # an image of 3 entries, too short to hold key 3, the top vertex of
    # slot 1, is no image, like one with a key that names no slot, and a
    # failing check (exit 1), not a crash; the inverse core cannot follow
    # it, so the trip breaks
    "gamma-short-image": (
        "_gamma_core", lambda: give(TWO_CYCLES, bj.gamma(TWO_CYCLES).partner[:3]),
        [
            ("gamma-image", 3, NO_IMAGE),
            ("theta-image", 3, NO_IMAGE),
            ("gamma-roundtrip", 3, "round trip broke at (1+)(2+ 3+)"),
            ("derangement-restriction", 3, NO_IMAGE),
        ],
        # the object with no image has no edge counts to read
        "row-of-partner form holds for 5/6 signed permutations;"
        " 0 failing inputs are cyclic; first failure (1+)(2+)(3+)",
    ),
    # a fault in the code the walks run is a failing check (exit 1), not
    # bad input (exit 2)
    "unfold-repeats-a-value": (
        "_unfold", repeat_in_3_cycles,
        [
            ("gamma-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 2+ 3+)"),
            ("theta-image", 3, NOT_SHOWN_INJECTIVE + "(1+ 2+ 3+)"),
            ("gamma-roundtrip", 3, "round trip broke at (1+ 2+ 3+)"),
            ("theta-roundtrip", 3, "round trip broke at (1+ 2+ 3+)"),
            ("derangement-restriction", 3, NOT_SHOWN_INJECTIVE + "(1+ 2+ 3+)"),
        ],
        None,
    ),
    # com is the count of the inverse core's cycles: one too many breaks
    # every trip of size 2 as well as com = cyc
    "match-stats-com": (
        "_gamma_inv_core", lambda: extra_cycle(2),
        [
            ("gamma-image", 2, NOT_SHOWN_INJECTIVE + "(1+)(2+)"),
            ("theta-image", 2, NOT_SHOWN_INJECTIVE + "(1+)(2+)"),
            ("gamma-roundtrip", 2, "round trip broke at (1+)(2+)"),
            ("theta-roundtrip", 2, "round trip broke at (1+ 2+)"),
            ("statistic-transport", 2, "(1+)(2+): com=3 cyc=2 ver=2 fix=2"),
            ("derangement-restriction", 2, NOT_SHOWN_INJECTIVE + "(1+)(2+)"),
        ],
        None,
    ),
    "match-stats-down": (
        "_edge_counts", lambda: bump_edges("down", 3),
        [("downline-per-cycle", 3, "(1+ 2+ 3+): down=2, neg=0, bump=1")],
        "row-of-partner form holds for 2/7 signed permutations;"
        " 3 failing inputs are cyclic; first failure (1+ 2+)(3+)",
    ),
    # the fixed points of pi go to the vertical edges of gamma(pi)
    "match-stats-ver": (
        "_edge_counts", lambda: bump_edges("ver", 2),
        [
            ("statistic-transport", 2, "(1+)(2+): com=2 cyc=2 ver=3 fix=2"),
            ("derangement-restriction", 2, "ver = fix fails on 2 of 2 inputs"),
        ],
        None,
    ),
    # at n = 3, the largest size, the breaks of the three shards add up
    "match-stats-ver-in-shards": (
        "_edge_counts", lambda: bump_edges("ver", 3),
        [
            ("statistic-transport", 3, "(1+)(2+)(3+): com=3 cyc=3 ver=4 fix=3"),
            ("derangement-restriction", 3, "ver = fix fails on 7 of 7 inputs"),
        ],
        None,
    ),
    # one derangement twice: every trip holds and every image is a Callan
    # matching, and only the count of inputs shows the fault
    "derangement-given-twice": (
        "_negative_cdes_core", lambda: repeat_a_derangement(S2),
        [
            ("count-callan", 3, "matchings 7, recurrence 7, signed perms 8"),
            ("count-callan-no-vertical", 3, "matchings 3, recurrence 3, signed perms 4"),
            ("gamma-image", 3, "8 inputs, 7 Callan matchings"),
            ("theta-image", 3, "8 inputs, 7 Callan matchings"),
            ("derangement-restriction", 3, "8 inputs, 7 Callan matchings"),
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
    assert code == (1 if failures else 0)


def test_every_bijections_check_is_reached():
    reached = {check for case in CASES.values() for check, _, _ in case[2]}
    reached.add("downline-global-report")  # its note changes in match-stats-down
    assert reached == set(SUITES["bijections"])


def test_theta_image_reads_its_rule_off_the_record():
    # the signed walk reads com off the inverse core's cycles, so com = cyc
    # fails only on an object whose trip fails: theta-image reads the rule
    # as the record's trip, and a ver break is derangement-restriction's
    def record(**fields):
        s, c = verify._SignedWalk(), verify._CallanWalk()
        s.count = c.count = 2
        vars(s).update(fields)
        return s, c

    witness = "round trip broke at (1+ 2+)"
    broken_trip = record(first={"gamma-roundtrip": witness})
    assert verify._FOLDS["theta-image"](2, 0, *broken_trip) == (
        "gamma not shown injective: " + witness
    )
    ver_break = record(breaks=1)
    assert verify._FOLDS["theta-image"](2, 0, *ver_break) is None
    assert verify._FOLDS["derangement-restriction"](2, 0, *ver_break) == (
        "ver = fix fails on 1 of 2 inputs"
    )
