"""Fault injection into the psi, varphi and phi checks of ``verify``.

Each case wraps the core of ``psi``, ``varphi`` or ``phi_map``, which the
walk of S_n calls in place of the public map, so that it breaks one law
at one chosen object, runs the check, and compares its verdict with the
text a check that maps every image back prints for the same fault.  The
cases where such a check cannot report (it raises on an image outside
the family, or never compares the stated delta with a walk) are marked.
Outputs of a kind no right core gives (a delta past a byte, a tag no map
gives, a tag that is no str, an image that is no tuple) run through the
CLI, which must report a failing check, not raise.

The involution checks fold their laws and signed sums off one walk of
S_n, which keys every object by its lexicographic rank; the tests at the
end pin down the ranks, the walk order, that each core is called once per
object of its domain and that the suite walks S_n once per size.
"""

import json
from collections import Counter
from itertools import permutations, product

import pytest

from records import replaced
from cycledescent import involutions as iv
from cycledescent import perms
from cycledescent import statpolys as sp
from cycledescent import verify
from cycledescent.cli import main
from cycledescent.involutions import InvolutionOutcome
from cycledescent.perms import Permutation, enumerate_permutations, standard_cycles, statistics
from cycledescent.poly import MultiPoly

# the core of each public map, which the walk of S_n calls in its place
CORE = {"psi": "_psi_core", "varphi": "_varphi_core", "phi_map": "_phi_core"}
REAL = {name: getattr(iv, core) for name, core in CORE.items()}
# where each core reads the word of its object: (n, i, word, cycles, top),
# (word, cycles) and (word, cycles, top)
WORD_AT = {"psi": 2, "varphi": 0, "phi_map": 0}
N = 5
W = Permutation


def fold(check, n):
    """Walk S_n once and fold one involution check off the walk."""
    return verify._FOLDS[check](n, verify.DEFAULT_SEED, verify._walk_perms(n))


def _patch(monkeypatch, name, table):
    """Let the core of the map ``name`` give the image word, tag and delta
    of ``table[p]`` for the objects p in ``table``."""
    real, at = REAL[name], WORD_AT[name]
    plain = {p.word: (out.image.word, out.case_tag, out.delta_cdes) for p, out in table.items()}

    def wrapper(*args):
        override = plain.get(args[at])
        return real(*args) if override is None else override

    monkeypatch.setattr(iv, CORE[name], wrapper)


# the true outcomes, read off the public maps before any core is patched
def psi2(p):
    return iv.psi(N, 2, p)


def varphi2(p):
    return iv.varphi(N, 2, p)


def phi(p):
    return iv.phi_map(p)


def swap(f, a, b):
    return {a: replaced(f(a), image=f(b).image), b: replaced(f(b), image=f(a).image)}


def fixed_pair(a, f):
    b = f(a).image
    return {a: InvolutionOutcome(a, "fixed", 0), b: InvolutionOutcome(b, "fixed", 0)}


# two psi(5, 1, .) fixed points with one excedance each, mapped onto each other
F1, F2 = W((1, 3, 2, 4, 5)), W((1, 2, 4, 3, 5))
LOSE_TWO = {
    F1: InvolutionOutcome(F2, "phi-split", -1),
    F2: InvolutionOutcome(F1, "phi-merge", 1),
}
# two psi(5, 1, .) fixed points with 0 and 1 excedances, mapped onto each other
IDENTITY = W((1, 2, 3, 4, 5))
EXC_PAIR = {
    IDENTITY: InvolutionOutcome(F1, "phi-merge", 1),
    F1: InvolutionOutcome(IDENTITY, "phi-split", -1),
}
# the fixed point of varphi(5, 2, .) is the cycle (1 5 4 3 2)
FP = W((5, 1, 2, 3, 4))
A = W((2, 1, 3, 4, 5))  # first object with pi(2) = 1
B = W((2, 1, 3, 5, 4))
D = W((2, 1, 4, 5, 3))  # first derangement with pi(2) = 1
# phi: the first permutation it moves, (1)(2)(3 5 4); one with the same
# flattening 1 2 3 5 4 and another excedance count, (1)(2 3 5 4); and one
# with another flattening, (1 3 2)(4)(5)
PA, SAME_HAT, PC = W((1, 2, 5, 3, 4)), W((1, 3, 5, 2, 4)), W((3, 1, 2, 4, 5))

# case id -> (check, map name, overrides, text of the map-back check; None
# where that check raises, False where it passes)
CASES = {
    "psi-swap": (
        "psi-involution", "psi",
        lambda: swap(psi2, A, B),
        "i=2, pi=2 1 3 4 5: not an involution",
    ),
    "psi-delta-2": (
        "psi-involution", "psi",
        lambda: {A: replaced(psi2(A), delta_cdes=2)},
        "i=2, pi=2 1 3 4 5: cdes delta 2",
    ),
    "psi-delta-0": (
        "psi-involution", "psi",
        lambda: {A: replaced(psi2(A), delta_cdes=0)},
        "i=2, pi=2 1 3 4 5: cdes delta 0",
    ),
    "psi-delta-sign": (
        "psi-involution", "psi",
        lambda: {A: replaced(psi2(A), delta_cdes=-psi2(A).delta_cdes)},
        False,
    ),
    "psi-tag": (
        "psi-involution", "psi",
        lambda: {A: replaced(psi2(A), case_tag="psi-case1")},
        "i=2, pi=2 1 3 4 5: branch psi-case1 paired with psi-case1",
    ),
    "psi-extra-fixed": (
        "psi-involution", "psi",
        lambda: {A: InvolutionOutcome(A, "fixed", 0)},
        "i=2, pi=5 1 3 4 2: not an involution",
    ),
    "psi-extra-fixed-pair": (
        "psi-involution", "psi",
        lambda: fixed_pair(A, psi2),
        "i=2: fixed set mismatch (2 found)",
    ),
    "psi-fixed-moved": (
        "psi-involution", "psi",
        lambda: {A: replaced(psi2(A), case_tag="fixed", delta_cdes=0)},
        "i=2, pi=2 1 3 4 5: bad fixed point",
    ),
    "psi-fixed-delta": (
        "psi-involution", "psi",
        lambda: {F1: InvolutionOutcome(F1, "fixed", 1)},
        "i=1, pi=1 3 2 4 5: bad fixed point",
    ),
    "psi-lose-fixed": (
        "psi-involution", "psi",
        lambda: {F1: InvolutionOutcome(F1, "phi-split", -1)},
        "i=1, pi=1 3 2 4 5: branch phi-split paired with phi-split",
    ),
    "psi-lose-two-fixed": (
        "psi-involution", "psi",
        lambda: LOSE_TWO,
        "i=1: fixed set mismatch (6 found)",
    ),
    "psi-exc": (
        "psi-involution", "psi",
        lambda: EXC_PAIR,
        "i=1, pi=1 2 3 4 5: excedances not preserved",
    ),
    "psi-other-family": (
        "psi-involution", "psi",
        # A and B map onto each other, but B has pi(3) = 1
        lambda: {
            A: InvolutionOutcome(W((3, 2, 1, 4, 5)), "phi-split", -1),
            W((3, 2, 1, 4, 5)): InvolutionOutcome(A, "phi-merge", 1),
        },
        "i=2, pi=2 1 3 4 5: not an involution",
    ),
    "psi-out-of-family": (
        "psi-involution", "psi",
        lambda: {A: replaced(psi2(A), image=W((1, 2, 3, 4, 5)))},
        None,
    ),
    "varphi-swap": (
        "varphi-involution", "varphi",
        lambda: swap(varphi2, D, FP),
        "i=2, pi=2 1 4 5 3: not an involution",
    ),
    "varphi-delta-2": (
        "varphi-involution", "varphi",
        lambda: {D: replaced(varphi2(D), delta_cdes=2)},
        "i=2, pi=2 1 4 5 3: cdes delta 2",
    ),
    "varphi-exc": (
        "varphi-involution", "varphi",
        # D has 3 excedances, the fixed point 1
        lambda: {
            D: InvolutionOutcome(FP, "varphi-merge", 1),
            FP: InvolutionOutcome(D, "varphi-split", -1),
        },
        "i=2, pi=2 1 4 5 3: excedances not preserved",
    ),
    "varphi-delta-sign": (
        "varphi-involution", "varphi",
        lambda: {D: replaced(varphi2(D), delta_cdes=-varphi2(D).delta_cdes)},
        False,
    ),
    "varphi-tag": (
        "varphi-involution", "varphi",
        lambda: {D: replaced(varphi2(D), case_tag="varphi-split")},
        "i=2, pi=2 1 4 5 3: branch pairing broken",
    ),
    "varphi-extra-fixed": (
        "varphi-involution", "varphi",
        lambda: {D: InvolutionOutcome(D, "fixed", 0)},
        "i=2, pi=3 1 4 5 2: not an involution",
    ),
    "varphi-extra-fixed-pair": (
        "varphi-involution", "varphi",
        lambda: fixed_pair(D, varphi2),
        "i=2: fixed set of 3 {2 1 4 5 3, 3 1 4 5 2, 5 1 2 3 4}, expected {5 1 2 3 4}",
    ),
    "varphi-fixed-delta": (
        "varphi-involution", "varphi",
        lambda: {FP: InvolutionOutcome(FP, "fixed", -1)},
        "i=2, pi=5 1 2 3 4: fixed point with cdes delta",
    ),
    "varphi-lose-fixed": (
        "varphi-involution", "varphi",
        lambda: {FP: InvolutionOutcome(FP, "varphi-split", -1)},
        "i=2, pi=5 1 2 3 4: branch pairing broken",
    ),
    "varphi-other-family": (
        "varphi-involution", "varphi",
        # D and a derangement with pi(3) = 1 map onto each other
        lambda: {
            D: InvolutionOutcome(W((2, 3, 1, 5, 4)), "varphi-split", -1),
            W((2, 3, 1, 5, 4)): InvolutionOutcome(D, "varphi-merge", 1),
        },
        "i=2, pi=2 1 4 5 3: not an involution",
    ),
    "varphi-not-derangement": (
        "varphi-involution", "varphi",
        lambda: {D: replaced(varphi2(D), image=W((2, 1, 3, 4, 5)))},
        None,
    ),
    "varphi-1-elsewhere": (
        "varphi-involution", "varphi",
        lambda: {D: replaced(varphi2(D), image=W((5, 4, 1, 2, 3)))},
        None,
    ),
    "phi-swap": (
        "phi-preservation", "phi_map",
        lambda: swap(phi, PA, PC),
        "pi=1 2 5 3 4: flattened word changed",
    ),
    "phi-hat": (
        "phi-preservation", "phi_map",
        lambda: {PA: replaced(phi(PA), image=PC)},
        "pi=1 2 5 3 4: flattened word changed",
    ),
    "phi-exc": (
        "phi-preservation", "phi_map",
        lambda: {PA: replaced(phi(PA), image=SAME_HAT)},
        "pi=1 2 5 3 4: excedances changed",
    ),
    "phi-delta-2": (
        "phi-preservation", "phi_map",
        lambda: {PA: replaced(phi(PA), delta_cdes=2)},
        "pi=1 2 5 3 4: cdes delta 2",
    ),
    "phi-delta-sign": (
        "phi-preservation", "phi_map",
        lambda: {PA: replaced(phi(PA), delta_cdes=1)},
        False,
    ),
    "phi-tag": (
        "phi-preservation", "phi_map",
        lambda: {PA: replaced(phi(PA), case_tag="phi-merge")},
        "pi=1 2 5 3 4: split/merge pairing broken",
    ),
    "phi-self": (
        "phi-preservation", "phi_map",
        lambda: {PA: replaced(phi(PA), image=PA)},
        "pi=1 2 5 3 4: split/merge pairing broken",
    ),
    "phi-wrong-size": (
        "phi-preservation", "phi_map",
        lambda: {PA: replaced(phi(PA), image=W((1, 2, 4, 3)))},
        "pi=1 2 5 3 4: flattened word changed",
    ),
}

# what the rewritten checks print where the map-back check cannot report
NEW_TEXT = {
    "psi-delta-sign": "i=2, pi=2 1 3 4 5: cdes delta 1, stated -1",
    "psi-out-of-family": "i=2, pi=2 1 3 4 5: not an involution",
    "varphi-delta-sign": "i=2, pi=2 1 4 5 3: cdes delta 1, stated -1",
    "varphi-not-derangement": "i=2, pi=2 1 4 5 3: not an involution",
    "varphi-1-elsewhere": "i=2, pi=2 1 4 5 3: not an involution",
    "phi-delta-sign": "pi=1 2 5 3 4: cdes delta -1, stated 1",
}


# faults at two objects, each case with the text of a check that walks the
# objects with pi(i) = 1 one i at a time: it reports the first failure by
# i, and within one i by rank, its laws before its fixed-set, size and
# signed-sum checks; a false claim, the least i's, comes only once every
# law has held
C = W((3, 1, 2, 4, 5))  # rank 48, pi(2) = 1
E = W((2, 3, 1, 4, 5))  # rank 30, pi(3) = 1
G = W((3, 1, 4, 5, 2))  # rank 51, a derangement with pi(2) = 1
H = W((2, 3, 1, 5, 4))  # rank 31, a derangement with pi(3) = 1


def flip(f, p):
    return {p: replaced(f(p), delta_cdes=-f(p).delta_cdes)}


def psi1(p):
    return iv.psi(N, 1, p)


def varphi3(p):
    return iv.varphi(N, 3, p)


ORDER_CASES = {
    # the later i holds the lower rank
    "psi-laws-at-two-i": (
        "psi-involution", "psi",
        lambda: {
            C: replaced(psi2(C), delta_cdes=2), E: replaced(iv.psi(N, 3, E), delta_cdes=2)
        },
        "i=2, pi=3 1 2 4 5: cdes delta 2",
    ),
    "varphi-laws-at-two-i": (
        "varphi-involution", "varphi",
        lambda: {G: replaced(varphi2(G), delta_cdes=2), H: replaced(varphi3(H), delta_cdes=2)},
        "i=2, pi=3 1 4 5 2: cdes delta 2",
    ),
    # a false claim at a lower rank than a law fault of the same i
    "psi-claim-and-law-in-one-i": (
        "psi-involution", "psi",
        lambda: {**flip(psi2, A), B: replaced(psi2(B), delta_cdes=2)},
        "i=2, pi=2 1 3 5 4: cdes delta 2",
    ),
    "varphi-claim-and-law-in-one-i": (
        "varphi-involution", "varphi",
        lambda: {**flip(varphi2, D), G: replaced(varphi2(G), delta_cdes=2)},
        "i=2, pi=3 1 4 5 2: cdes delta 2",
    ),
    "phi-claim-and-law": (
        "phi-preservation", "phi_map",
        lambda: {**flip(phi, PA), C: replaced(phi(C), delta_cdes=2)},
        "pi=3 1 2 4 5: cdes delta 2",
    ),
    # a false claim at i = 1 or 2, a fixed-set mismatch at the next i
    "psi-claim-then-fixed-set": (
        "psi-involution", "psi",
        lambda: {**flip(psi1, PA), **fixed_pair(A, psi2)},
        "i=2: fixed set mismatch (2 found)",
    ),
    "varphi-claim-then-fixed-set": (
        "varphi-involution", "varphi",
        lambda: {**flip(varphi2, D), **fixed_pair(H, varphi3)},
        "i=3: fixed set of 3 {2 3 1 5 4, 2 5 1 3 4, 4 3 1 5 2}, expected {2 5 1 3 4}",
    ),
}


@pytest.mark.parametrize("case_id", sorted(ORDER_CASES))
def test_first_failure_by_i_then_rank(monkeypatch, case_id):
    check, name, overrides, want = ORDER_CASES[case_id]
    _patch(monkeypatch, name, overrides())
    assert fold(check, N) == want


def run_case(monkeypatch, case_id):
    check, name, overrides, _ = CASES[case_id]
    _patch(monkeypatch, name, overrides())
    return fold(check, N)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_fault_is_reported(monkeypatch, case_id):
    expected = CASES[case_id][3]
    want = NEW_TEXT[case_id] if expected in (None, False) else expected
    assert run_case(monkeypatch, case_id) == want


def test_varphi_fixed_tag_on_a_moved_object_fails_at_its_image(monkeypatch):
    # unlike psi's (case psi-fixed-moved), a varphi fixed point need not map
    # to itself: the moved object D counts as fixed, and the law breaks at
    # its image G, whose tag pairs with no fixed tag
    _patch(monkeypatch, "varphi", {D: replaced(varphi2(D), case_tag="fixed", delta_cdes=0)})
    assert fold("varphi-involution", N) == "i=2, pi=3 1 4 5 2: branch pairing broken"


def test_varphi_fixed_set_witness_is_bounded(monkeypatch):
    # a core that tags every derangement fixed: the witness gives the count
    # and the first three fixed points in rank order, not all of them
    monkeypatch.setattr(iv, "_varphi_core", lambda word, cycles: (word, "fixed", 0))
    assert fold("varphi-involution", N) == (
        "i=2: fixed set of 11 {2 1 4 5 3, 2 1 5 3 4, 3 1 2 5 4, ...}, expected {5 1 2 3 4}"
    )


def stating_delta(delta, at):
    """The core of psi states ``delta`` at the word ``at``."""
    real = REAL["psi"]

    def fake(n, i, word, cycles, top):
        image, tag, d = real(n, i, word, cycles, top)
        return image, tag, delta if word == at else d

    return fake


def renaming_tag(old, new):
    """The core of varphi gives the tag ``new`` wherever it gives ``old``."""
    real = REAL["varphi"]

    def fake(word, cycles):
        image, tag, d = real(word, cycles)
        return image, new if tag == old else tag, d

    return fake


def listing_image(*args):
    """The core of phi_map, with its image word as a list."""
    image, tag, d = REAL["phi_map"](*args)
    return list(image), tag, d


# outputs of a kind no right core gives (a delta past a byte, a tag no map
# gives, a tag that is no str, an image that is no tuple): case id -> (map name, fake core,
# failures of ``verify involutions --n-max 5`` as (check, n, witness)); the
# phi core's list image is also psi's on its phi branches
CORE_OUTPUT_FAULTS = {
    "psi-delta-200": (
        "psi", lambda: stating_delta(200, A.word),
        [("psi-involution", 5, "i=2, pi=2 1 3 4 5: cdes delta 200")],
    ),
    "varphi-unknown-tag": (
        "varphi", lambda: renaming_tag("varphi-split", "varphi-splits"),
        [
            ("varphi-involution", 4, "i=2, pi=2 1 4 3: branch pairing broken"),
            ("varphi-involution", 5, "i=2, pi=2 1 4 5 3: branch pairing broken"),
        ],
    ),
    # a tag that is no str, here a list, which cannot be hashed, reads as
    # a tag no map gives
    "varphi-list-tag": (
        "varphi", lambda: renaming_tag("varphi-split", ["varphi-split"]),
        [
            ("varphi-involution", 4, "i=2, pi=2 1 4 3: branch pairing broken"),
            ("varphi-involution", 5, "i=2, pi=2 1 4 5 3: branch pairing broken"),
        ],
    ),
    "phi-list-image": (
        "phi_map", lambda: listing_image,
        [
            ("psi-involution", 4, "i=1, pi=1 4 2 3: not an involution"),
            ("psi-involution", 5, "i=1, pi=1 2 5 3 4: not an involution"),
            ("phi-preservation", 3, "pi=3 1 2: flattened word changed"),
            ("phi-preservation", 4, "pi=1 4 2 3: flattened word changed"),
            ("phi-preservation", 5, "pi=1 2 5 3 4: flattened word changed"),
        ],
    ),
}


@pytest.mark.parametrize("case_id", sorted(CORE_OUTPUT_FAULTS))
def test_core_output_fault_fails_a_check(monkeypatch, capsys, case_id):
    # a failing check (exit 1) with its witness, not a traceback
    name, make, failures = CORE_OUTPUT_FAULTS[case_id]
    monkeypatch.setattr(iv, CORE[name], make())
    code = main(["verify", "involutions", "--n-max", "5", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert [(f["check"], f["n"], f["witness"]) for f in data["failures"]] == failures
    assert code == 1


def test_unbroken_maps_pass(monkeypatch):
    for check, name in [
        ("psi-involution", "psi"),
        ("varphi-involution", "varphi"),
        ("phi-preservation", "phi_map"),
    ]:
        _patch(monkeypatch, name, {})
        assert fold(check, N) is None


def test_psi_fixed_set_of_the_wrong_size(monkeypatch):
    # psi(5, 2, .) fixes A and its image, and the fixed set agrees, but an
    # interior position has no fixed points
    a_image = psi2(A).image
    _patch(monkeypatch, "psi", fixed_pair(A, psi2))
    real = iv.psi_fixed_set
    monkeypatch.setattr(
        iv, "psi_fixed_set",
        lambda n, i: frozenset({A, a_image}) if (n, i) == (N, 2) else real(n, i),
    )
    assert fold("psi-involution", N) == "i=2: fixed set has size 2, want 0"


def test_psi_image_that_is_no_permutation(monkeypatch):
    # psi(5, 2, A) is 5 1 3 4 2; this trusted word repeats 5 and 1 but has
    # the same head and a tail of the same pattern, so a rank read off the
    # two halves alone would alias it to the true image and the check
    # would pass
    bad = Permutation._trusted((5, 1, 4, 5, 1))
    assert psi2(A).image == W((5, 1, 3, 4, 2))
    _patch(monkeypatch, "psi", {A: replaced(psi2(A), image=bad)})
    assert fold("psi-involution", N) == "i=2, pi=2 1 3 4 5: not an involution"


def test_varphi_signed_sum_off_its_closed_form(monkeypatch):
    real = sp.alternating_closed_form

    def closed_form(n, i, derangements=False):
        out = real(n, i, derangements)
        return out + 1 if (n, i, derangements) == (N, 2, True) else out

    monkeypatch.setattr(sp, "alternating_closed_form", closed_form)
    assert fold("varphi-involution", N) == "i=2: signed sum -x, closed -x + 1"


def test_phi_top_descent_changed(monkeypatch):
    # a cycle walk that lies about the last top-descent of one word, whose
    # flattening stays put
    real = perms._walk_word
    liar = (1, 3, 2)

    def walk(word):
        out = real(word)
        return (*out[:-1], 2) if word == liar else out

    monkeypatch.setattr(perms, "_walk_word", walk)
    assert fold("phi-preservation", 3) == "pi=1 3 2: top-descent changed"


# the objects of S_n in the domain of each map
DOMAIN = {
    "psi": lambda p: True,
    "varphi": lambda p: statistics(p).fix == 0,
    "phi_map": lambda p: iv.last_top_descent(p) is not None,
}


@pytest.mark.parametrize(
    "check, name",
    [("psi-involution", "psi"), ("varphi-involution", "varphi"), ("phi-preservation", "phi_map")],
)
def test_one_walk_and_one_map_call_per_object(monkeypatch, check, name):
    n = 6
    walked = list(enumerate_permutations("all", n))
    walks, calls = [], []
    real_walk, real_core, at = perms._walk_word, REAL[name], WORD_AT[name]
    monkeypatch.setattr(perms, "_walk_word", lambda w: walks.append(w) or real_walk(w))
    monkeypatch.setattr(iv, CORE[name], lambda *a: calls.append(a[at]) or real_core(*a))
    assert fold(check, n) is None
    # every walk is of an object of the stream, none of an image
    assert sorted(walks) == sorted(p.word for p in walked)
    assert calls == [p.word for p in walked if DOMAIN[name](p)]


def test_involutions_suite_walks_s_n_once_per_size(monkeypatch):
    # every walk of S_n in the process goes through _all_words, the walk of
    # verify on plain words and, through _all_perms, the tally of statpolys;
    # an empty tally lets no earlier test hide a walk
    walked, calls = Counter(), Counter()
    real_all = perms._all_words
    monkeypatch.setattr(perms, "_all_words", lambda n: walked.update([n]) or real_all(n))
    sp.statistic_poly.cache_clear()
    for name, real in REAL.items():
        def counted(*a, name=name, real=real):
            calls[name, *a] += 1
            return real(*a)

        monkeypatch.setattr(iv, CORE[name], counted)
    summary = verify.run_verification("involutions", n_max=6)
    assert summary.checks_run == 21 and not summary.failures
    assert walked == Counter(range(1, 7))
    want = Counter()
    for n in range(1, 7):
        for p in enumerate_permutations("all", n):
            s, cycles, top = statistics(p), standard_cycles(p).cycles, iv.last_top_descent(p)
            want["psi", n, s.inv1, p.word, cycles, top] += n >= 2
            want["varphi", p.word, cycles] += s.fix == 0
            want["phi_map", p.word, cycles, top] += top is not None
    assert calls == want


def signed_sum(w, ranks):
    """The sum of (-1)^cdes x^exc over the records of the given ranks."""
    total = MultiPoly()
    for k in ranks:
        total += MultiPoly.monomial((-1) ** w.cdes[k], ex=w.exc[k])
    return total


@pytest.mark.parametrize("n", range(1, 8))
def test_signed_sums_off_the_walk_match_the_tally(n):
    # the naive tally of statpolys, a walk of its own, is the oracle of the
    # records that psi-fixed-weight and varphi-involution sum: the objects
    # with pi(i) = 1 are those whose pos1 record is i, and the derangements
    # among them those that varphi tags
    w = verify._walk_perms(n)
    for i in range(1, n + 1):
        ranks = [k for k, p in enumerate(w.pos1) if p == i]
        derangements = [k for k in ranks if w.varphi.tag[k]]
        assert signed_sum(w, ranks) == sp.statistic_poly(n, i).substitute(
            y=-1, q=1, t=1
        ), (n, i)
        assert signed_sum(w, derangements) == sp.statistic_poly(
            n, i, derangements=True
        ).substitute(y=-1, t=1), (n, i)


# ---------------------------------------------------------------------------
# The rank keys and the walk order.


@pytest.mark.parametrize("n", range(1, 7))
def test_rank_is_the_stream_index(n):
    rank = verify._ranker(n)
    for k, p in enumerate(enumerate_permutations("all", n)):
        assert rank(p.word) == k
        # _unrank reads the stream itself, so the list rank is its oracle
        assert list_rank(verify._unrank(k, n).word, n) == k


def test_rank_refuses_words_outside_the_family():
    assert verify._ranker(4)((2, 1, 3)) == -1
    assert verify._ranker(4)((1, 2, 3, 4, 5)) == -1
    # head and tail each an arrangement of distinct values, but not together
    assert verify._ranker(8)((1, 2, 3, 4, 1, 2, 3, 4)) == -1


@pytest.mark.parametrize("n", range(0, 6))
def test_rank_refuses_every_word_that_is_no_permutation(n):
    rank = verify._ranker(n)
    for word in product(range(n + 2), repeat=n):
        want = list_rank(word, n) if sorted(word) == list(range(1, n + 1)) else -1
        assert rank(word) == want, word


def list_rank(word, n):
    """The rank by a list of the unused values: one index and one del per entry."""
    if len(word) != n:
        return -1
    rest = list(range(1, n + 1))
    r = 0
    for v in word:
        j = rest.index(v)
        r = r * len(rest) + j
        del rest[j]
    return r


@pytest.mark.parametrize("n", range(1, 9))
def test_table_rank_is_the_list_rank(n):
    rank = verify._ranker(n)
    for word in permutations(range(1, n + 1)):
        assert rank(word) == list_rank(word, n)
    for word in (tuple(range(1, n)), tuple(range(1, n + 2))):
        assert rank(word) == list_rank(word, n) == -1


@pytest.mark.parametrize("n", range(1, 7))
def test_one_at_i_ranks_follow_their_stream(n):
    w = verify._walk_perms(n)
    for i in range(1, n + 1):
        ranks = [k for k, p in enumerate(w.pos1) if p == i]
        assert [verify._unrank(k, n) for k in ranks] == list(
            enumerate_permutations("one_at_i", n, i)
        )


@pytest.mark.parametrize("n", range(2, 7))
def test_derangement_ranks_follow_their_stream(n):
    # varphi records exactly the derangements, so its tags mark the family
    w = verify._walk_perms(n)
    for i in range(2, n + 1):
        ranks = [k for k, (p, t) in enumerate(zip(w.pos1, w.varphi.tag)) if p == i and t]
        assert [verify._unrank(k, n) for k in ranks] == list(
            enumerate_permutations("derangements_one_at_i", n, i)
        )
