"""Fault injection into the psi, varphi and phi checks of ``verify``.

Each case wraps ``psi``, ``varphi`` or ``phi_map`` so that it breaks one
law at one chosen object, runs the check, and compares its verdict with
the text a check that maps every image back prints for the same fault.
The cases where such a check cannot report (it raises on an image outside
the family, or never compares the stated delta with a walk) are marked.

The checks key every object by its lexicographic rank in its stream; the
rank tests at the end pin that property down.
"""

from dataclasses import replace

import pytest

from cycledescent import involutions as iv
from cycledescent import perms
from cycledescent import verify
from cycledescent.involutions import InvolutionOutcome
from cycledescent.perms import Permutation, enumerate_permutations

REAL = {"psi": iv.psi, "varphi": iv.varphi, "phi_map": iv.phi_map}
N = 5
W = Permutation


def _patch(monkeypatch, name, table):
    """Let ``iv.<name>`` give ``table[p]`` for the objects p in ``table``."""
    real = REAL[name]

    def wrapper(*args):
        override = table.get(args[-1])
        return real(*args) if override is None else override

    monkeypatch.setattr(iv, name, wrapper)


def psi2(p):
    return REAL["psi"](N, 2, p)


def varphi2(p):
    return REAL["varphi"](N, 2, p)


def phi(p):
    return REAL["phi_map"](p)


def swap(f, a, b):
    return {a: replace(f(a), image=f(b).image), b: replace(f(b), image=f(a).image)}


def fixed_pair(a, f):
    b = f(a).image
    return {a: InvolutionOutcome(a, "fixed", 0), b: InvolutionOutcome(b, "fixed", 0)}


# two psi(5, 1, .) fixed points with one excedance each, mapped onto each other
F1, F2 = W((1, 3, 2, 4, 5)), W((1, 2, 4, 3, 5))
LOSE_TWO = {
    F1: InvolutionOutcome(F2, "phi-split", -1),
    F2: InvolutionOutcome(F1, "phi-merge", 1),
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
        lambda: {A: replace(psi2(A), delta_cdes=2)},
        "i=2, pi=2 1 3 4 5: cdes delta 2",
    ),
    "psi-delta-0": (
        "psi-involution", "psi",
        lambda: {A: replace(psi2(A), delta_cdes=0)},
        "i=2, pi=2 1 3 4 5: cdes delta 0",
    ),
    "psi-delta-sign": (
        "psi-involution", "psi",
        lambda: {A: replace(psi2(A), delta_cdes=-psi2(A).delta_cdes)},
        False,
    ),
    "psi-tag": (
        "psi-involution", "psi",
        lambda: {A: replace(psi2(A), case_tag="psi-case1")},
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
        lambda: {A: replace(psi2(A), case_tag="fixed", delta_cdes=0)},
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
    "psi-out-of-family": (
        "psi-involution", "psi",
        lambda: {A: replace(psi2(A), image=W((1, 2, 3, 4, 5)))},
        None,
    ),
    "varphi-swap": (
        "varphi-involution", "varphi",
        lambda: swap(varphi2, D, FP),
        "i=2, pi=2 1 4 5 3: not an involution",
    ),
    "varphi-delta-2": (
        "varphi-involution", "varphi",
        lambda: {D: replace(varphi2(D), delta_cdes=2)},
        "i=2, pi=2 1 4 5 3: cdes delta 2",
    ),
    "varphi-delta-sign": (
        "varphi-involution", "varphi",
        lambda: {D: replace(varphi2(D), delta_cdes=-varphi2(D).delta_cdes)},
        False,
    ),
    "varphi-tag": (
        "varphi-involution", "varphi",
        lambda: {D: replace(varphi2(D), case_tag="varphi-split")},
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
        "i=2: fixed set {Permutation((2, 1, 4, 5, 3)), "
        "Permutation((5, 1, 2, 3, 4)), Permutation((3, 1, 4, 5, 2))}, expected {5 1 2 3 4}",
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
    "varphi-not-derangement": (
        "varphi-involution", "varphi",
        lambda: {D: replace(varphi2(D), image=W((2, 1, 3, 4, 5)))},
        None,
    ),
    "varphi-1-elsewhere": (
        "varphi-involution", "varphi",
        lambda: {D: replace(varphi2(D), image=W((5, 4, 1, 2, 3)))},
        None,
    ),
    "phi-swap": (
        "phi-preservation", "phi_map",
        lambda: swap(phi, PA, PC),
        "pi=1 2 5 3 4: flattened word changed",
    ),
    "phi-hat": (
        "phi-preservation", "phi_map",
        lambda: {PA: replace(phi(PA), image=PC)},
        "pi=1 2 5 3 4: flattened word changed",
    ),
    "phi-exc": (
        "phi-preservation", "phi_map",
        lambda: {PA: replace(phi(PA), image=SAME_HAT)},
        "pi=1 2 5 3 4: excedances changed",
    ),
    "phi-delta-2": (
        "phi-preservation", "phi_map",
        lambda: {PA: replace(phi(PA), delta_cdes=2)},
        "pi=1 2 5 3 4: cdes delta 2",
    ),
    "phi-delta-sign": (
        "phi-preservation", "phi_map",
        lambda: {PA: replace(phi(PA), delta_cdes=1)},
        False,
    ),
    "phi-tag": (
        "phi-preservation", "phi_map",
        lambda: {PA: replace(phi(PA), case_tag="phi-merge")},
        "pi=1 2 5 3 4: split/merge pairing broken",
    ),
    "phi-self": (
        "phi-preservation", "phi_map",
        lambda: {PA: replace(phi(PA), image=PA)},
        "pi=1 2 5 3 4: split/merge pairing broken",
    ),
    "phi-wrong-size": (
        "phi-preservation", "phi_map",
        lambda: {PA: replace(phi(PA), image=W((1, 2, 4, 3)))},
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


def run_case(monkeypatch, case_id):
    check, name, overrides, _ = CASES[case_id]
    _patch(monkeypatch, name, overrides())
    return verify.CHECKS[check].fn(N, verify.DEFAULT_SEED)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_fault_is_reported(monkeypatch, case_id):
    expected = CASES[case_id][3]
    want = NEW_TEXT[case_id] if expected in (None, False) else expected
    assert run_case(monkeypatch, case_id) == (False, want)


def test_unbroken_maps_pass(monkeypatch):
    for check, name in [
        ("psi-involution", "psi"),
        ("varphi-involution", "varphi"),
        ("phi-preservation", "phi_map"),
    ]:
        _patch(monkeypatch, name, {})
        assert verify.CHECKS[check].fn(N, verify.DEFAULT_SEED)[0]


def test_phi_top_descent_changed(monkeypatch):
    # a last top-descent that lies about one word, whose flattening stays put
    real = iv.last_top_descent
    liar = W((1, 3, 2))
    monkeypatch.setattr(
        iv, "last_top_descent", lambda p: 2 if p == liar else real(p)
    )
    assert verify.CHECKS["phi-preservation"].fn(3, 0) == (
        False,
        "pi=1 3 2: top-descent changed",
    )


def _objects(check, n):
    """The objects a check walks and the ones it maps."""
    if check == "psi-involution":
        walked = [p for i in range(1, n + 1) for p in enumerate_permutations("one_at_i", n, i)]
        return walked, walked
    walked = list(enumerate_permutations("all", n))
    return walked, [p for p in walked if iv.last_top_descent(p) is not None]


@pytest.mark.parametrize(
    "check, name", [("psi-involution", "psi"), ("phi-preservation", "phi_map")]
)
def test_one_walk_and_one_map_call_per_object(monkeypatch, check, name):
    n = 6
    walked, mapped = _objects(check, n)
    walks, calls = [], []
    real_walk, real_map = perms._cycle_walk, REAL[name]
    monkeypatch.setattr(perms, "_cycle_walk", lambda w: walks.append(w) or real_walk(w))
    monkeypatch.setattr(iv, name, lambda *a: calls.append(a[-1]) or real_map(*a))
    assert verify.CHECKS[check].fn(n, verify.DEFAULT_SEED)[0]
    # every walk is of an object of the stream, none of an image
    assert sorted(walks) == sorted(p.word for p in walked)
    assert calls == mapped


# ---------------------------------------------------------------------------
# The rank keys.


@pytest.mark.parametrize("n", range(1, 7))
def test_rank_is_the_stream_index(n):
    families = [verify._Family("all", n)] + [
        verify._Family("one_at_i", n, i) for i in range(1, n + 1)
    ]
    for fam in families:
        stream = list(enumerate_permutations(fam.name, n, fam.i))
        assert fam.size == len(stream)
        for k, p in enumerate(stream):
            assert fam.rank(p.word) == k
            assert fam.unrank(k) == p
        assert [k for k, _ in fam.ranked()] == list(range(fam.size))


@pytest.mark.parametrize("n", range(2, 7))
def test_derangement_ranks_are_one_at_i_indices(n):
    for i in range(2, n + 1):
        fam = verify._Family("derangements_one_at_i", n, i)
        index = {p: k for k, p in enumerate(enumerate_permutations("one_at_i", n, i))}
        ranked = list(fam.ranked())
        assert [p for _, p in ranked] == list(
            enumerate_permutations("derangements_one_at_i", n, i)
        )
        assert all(k == index[p] and fam.unrank(k) == p for k, p in ranked)
        members = {p for _, p in ranked}
        for p, k in index.items():
            assert fam.rank(p.word) == (k if p in members else -1)


def test_rank_refuses_words_outside_the_family():
    assert verify._Family("one_at_i", 4, 2).rank((1, 2, 3, 4)) == -1
    assert verify._Family("one_at_i", 4, 2).rank((2, 1, 3)) == -1
    assert verify._Family("all", 4).rank((2, 1, 3)) == -1
    assert verify._Family("derangements_one_at_i", 4, 2).rank((3, 1, 2, 4)) == -1
    assert verify._Family("derangements_one_at_i", 4, 2).rank((3, 1, 4, 2)) >= 0
