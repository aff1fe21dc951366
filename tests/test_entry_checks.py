"""Each input check of the library, run on one input it refuses.

Values are validated where they come in; every case here names an entry
point, an input it must refuse and the text of the refusal.
"""

import pytest

from cycledescent import bijections as bj
from cycledescent import involutions as iv
from cycledescent import matchings as mt
from cycledescent import perms
from cycledescent import statpolys as sp

NON_CALLAN = mt.matching_from_json_dict(
    {"support": [1, 2], "edges": [[[1, 0], [2, 1]], [[1, 1], [2, 0]]]}
)

CASES = {
    "blocks-empty": (lambda: bj.blocks((), ()), "empty cycle"),
    "blocks-not-smallest-first": (lambda: bj.blocks((2, 1), ()), "not smallest-first"),
    "gamma-sign-off-a-descent": (
        lambda: bj.gamma(bj.SignedPermutation(perms.Permutation((2, 1)), {1})),
        "not all cycle descents",
    ),
    "theta-inv-upline": (lambda: bj.theta_inv(NON_CALLAN), "uplines"),
    "gamma-inv-upline": (lambda: bj.gamma_inv(NON_CALLAN), "uplines"),
    "matchings-negative-size": (lambda: list(mt.enumerate_matchings(-1)), "negative size"),
    "cycle-element-below-1": (
        lambda: perms.CycleDecomposition(((0.5, 2),)),
        "out of range: 0.5",
    ),
    "cycles-not-an-interval": (
        lambda: perms.CycleDecomposition(((1,), (3,))).to_permutation(),
        "not a full interval",
    ),
    "one-line-wrong-length": (
        lambda: perms.parse_permutation("2 1 3", n=4),
        "length 3, expected 4",
    ),
    "cycle-element-above-n": (lambda: perms.parse_permutation("(1 5)", n=4), "above size 4"),
    "family-negative-size": (
        lambda: list(perms.enumerate_permutations("all", -1)),
        "negative size",
    ),
    "family-without-index": (
        lambda: list(perms.enumerate_permutations("one_at_i", 3)),
        "requires an index",
    ),
    "recurrence-table-empty": (lambda: sp.recurrence_table(0), "n >= 1"),
    "closed-form-small-n": (lambda: sp.alternating_closed_form(1, 1), "n >= 2"),
    "closed-form-index": (lambda: sp.alternating_closed_form(3, 4), "i=4, n=3"),
    "derangement-rec-negative": (
        lambda: sp.cdes_distribution_rec(-1, derangements=True),
        "negative size",
    ),
    "distribution-rec-empty": (lambda: sp.cdes_distribution_rec(0), "size must be >= 1"),
    "klazar-empty": (lambda: sp.klazar_count(0), "size must be >= 1"),
    "b20-negative": (lambda: sp.b20_count(-1), "negative size"),
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_input_is_refused(case_id):
    call, text = CASES[case_id]
    with pytest.raises(ValueError, match=text):
        call()


W = perms.Permutation

# The public involutions check their arguments and then call cores that
# trust them, so each refusal text, and which of two faults is named
# first, is pinned whole.
INVOLUTION_CASES = {
    "psi-small-n": (lambda: iv.psi(1, 1, W((1,))), "involution defined for n >= 2"),
    "psi-small-n-before-size": (
        lambda: iv.psi(1, 1, W((1, 2))),
        "involution defined for n >= 2",
    ),
    "psi-wrong-size": (
        lambda: iv.psi(3, 1, W((1, 2))),
        "bad arguments: n=3, i=1, perm of size 2",
    ),
    "psi-wrong-size-before-no-1": (
        lambda: iv.psi(3, 2, W((1, 2))),
        "bad arguments: n=3, i=2, perm of size 2",
    ),
    "psi-index-below-1": (
        lambda: iv.psi(3, 0, W((1, 2, 3))),
        "bad arguments: n=3, i=0, perm of size 3",
    ),
    "psi-index-above-n": (
        lambda: iv.psi(3, 4, W((1, 2, 3))),
        "bad arguments: n=3, i=4, perm of size 3",
    ),
    "psi-no-1-at-i": (
        lambda: iv.psi(3, 2, W((1, 2, 3))),
        "1 2 3 does not place the value 1 at position 2",
    ),
    "varphi-wrong-size": (
        lambda: iv.varphi(3, 2, W((2, 1))),
        "size mismatch: n=3, perm of size 2",
    ),
    "varphi-wrong-size-before-index": (
        lambda: iv.varphi(3, 5, W((2, 1))),
        "size mismatch: n=3, perm of size 2",
    ),
    "varphi-index-1": (
        lambda: iv.varphi(3, 1, W((1, 3, 2))),
        "index out of range: i=1, n=3",
    ),
    "varphi-index-above-n": (
        lambda: iv.varphi(3, 4, W((2, 3, 1))),
        "index out of range: i=4, n=3",
    ),
    "varphi-no-1-at-i": (
        lambda: iv.varphi(3, 2, W((2, 3, 1))),
        "2 3 1 does not place the value 1 at position 2",
    ),
    "varphi-no-1-at-i-before-fixed-point": (
        lambda: iv.varphi(3, 2, W((1, 2, 3))),
        "1 2 3 does not place the value 1 at position 2",
    ),
    "varphi-not-derangement": (
        lambda: iv.varphi(3, 2, W((2, 1, 3))),
        "2 1 3 is not a derangement",
    ),
    "phi-increasing-flattening": (
        # (1)(2 3) flattens to 1 2 3
        lambda: iv.phi_map(W((1, 3, 2))),
        "map undefined: the flattened cycle word is increasing",
    ),
}


@pytest.mark.parametrize("case_id", sorted(INVOLUTION_CASES))
def test_involution_input_is_refused(case_id):
    call, text = INVOLUTION_CASES[case_id]
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == text
