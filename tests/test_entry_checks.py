"""Each input check of the library, run on one input it refuses.

Values are validated where they come in; every case here names an entry
point, an input it must refuse and the text of the refusal.
"""

import pytest

from cycledescent import bijections as bj
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
