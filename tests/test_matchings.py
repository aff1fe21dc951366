import json
import math

import pytest
from deadline import deadline

from cycledescent.bijections import _gamma_inv_core
from cycledescent.matchings import (
    MVertex,
    PerfectMatching,
    _component_walks,
    components,
    edge_class,
    enumerate_matchings,
    is_callan,
    match_stats,
    matching_from_json_dict,
    matching_to_json_dict,
    mk_matching,
)

# the worked 8-point example with three uplines
EX_MIXED = [
    ((1, 1), (1, 0)),
    ((3, 1), (6, 0)),
    ((6, 1), (8, 0)),
    ((5, 1), (2, 0)),
    ((7, 1), (5, 0)),
    ((8, 1), (4, 0)),
    ((2, 1), (4, 1)),
    ((3, 0), (7, 0)),
]

# the worked Callan example: components {1,3,4,6}, {2,7,8}, {5}
EX_CALLAN = [
    ((1, 0), (3, 0)),
    ((1, 1), (4, 0)),
    ((3, 1), (6, 0)),
    ((4, 1), (6, 1)),
    ((2, 0), (7, 0)),
    ((2, 1), (8, 1)),
    ((7, 1), (8, 0)),
    ((5, 0), (5, 1)),
]


def test_mk_matching_valid():
    m = mk_matching([1], [((1, 0), (1, 1))])
    assert m.n == 1
    m8 = mk_matching(range(1, 9), EX_MIXED)
    assert len(m8.edges) == 8


def test_mk_matching_canonical_order():
    m = mk_matching([1, 2], [((2, 1), (1, 1)), ((2, 0), (1, 0))])
    assert m.edges == (
        (MVertex(1, 0), MVertex(2, 0)),
        (MVertex(1, 1), MVertex(2, 1)),
    )


def test_mk_matching_errors():
    with pytest.raises(ValueError):
        mk_matching([1, 2], [((1, 0), (1, 1))])  # uncovered
    with pytest.raises(ValueError):
        mk_matching([1], [((1, 0), (1, 0))])  # self-pair
    with pytest.raises(ValueError):
        mk_matching([1], [((1, 0), (2, 1)), ((1, 1), (2, 0))])  # outside support
    with pytest.raises(ValueError):
        mk_matching(
            [1, 2], [((1, 0), (1, 1)), ((1, 0), (2, 1)), ((2, 0), (2, 1))]
        )  # covered twice


def test_edge_class():
    assert edge_class((MVertex(1, 1), MVertex(1, 0))) == "vertical"
    assert edge_class((MVertex(6, 0), MVertex(3, 1))) == "downline"
    assert edge_class((MVertex(2, 0), MVertex(5, 1))) == "upline"
    assert edge_class((MVertex(2, 1), MVertex(4, 1))) == "arc"
    assert edge_class((MVertex(3, 0), MVertex(7, 0))) == "arc"


def test_match_stats_mixed_example():
    s = match_stats(mk_matching(range(1, 9), EX_MIXED))
    assert (s.arc, s.up, s.down, s.ver) == (2, 3, 2, 1)
    assert s.arc + s.up + s.down + s.ver == 8


def test_all_vertical():
    n = 5
    m = mk_matching(range(1, n + 1), [((i, 0), (i, 1)) for i in range(1, n + 1)])
    s = match_stats(m)
    assert s.ver == n and s.com == n
    assert is_callan(m)


def test_callan_example():
    m = mk_matching(range(1, 9), EX_CALLAN)
    assert is_callan(m)
    assert match_stats(m).com == 3
    assert not is_callan(mk_matching(range(1, 9), EX_MIXED))


def test_components_partition():
    m = mk_matching(range(1, 9), EX_CALLAN)
    comps = components(m)
    assert [c.support for c in comps] == [(1, 3, 4, 6), (2, 7, 8), (5,)]
    assert all(match_stats(c).com == 1 for c in comps)
    covered = sorted(v for c in comps for v in c.support)
    assert covered == list(range(1, 9))
    whole = match_stats(m)
    parts = [match_stats(c) for c in comps]
    assert whole.arc == sum(p.arc for p in parts)
    assert whole.up == sum(p.up for p in parts)
    assert whole.down == sum(p.down for p in parts)
    assert whole.ver == sum(p.ver for p in parts)


def test_two_arc_component():
    m = mk_matching([1, 2], [((1, 0), (2, 0)), ((1, 1), (2, 1))])
    assert match_stats(m).com == 1


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_matchings(2)) == 3
    for n in range(1, 6):
        double_fact = math.prod(range(2 * n - 1, 0, -2))
        assert sum(1 for _ in enumerate_matchings(n)) == double_fact
    assert [sum(1 for _ in enumerate_matchings(n, "callan")) for n in range(1, 6)] == [
        1,
        2,
        7,
        35,
        226,
    ]
    assert sum(1 for _ in enumerate_matchings(3, "callan_no_vertical")) == 3


def test_enumeration_distinct_and_filtered():
    seen = list(enumerate_matchings(4, "callan"))
    assert len(set(seen)) == len(seen)
    assert all(is_callan(m) for m in seen)
    noverts = list(enumerate_matchings(4, "callan_no_vertical"))
    assert all(match_stats(m).ver == 0 for m in noverts)
    assert set(noverts) <= set(seen)


def test_enumeration_errors():
    with pytest.raises(ValueError):
        list(enumerate_matchings(9))
    with pytest.raises(ValueError):
        list(enumerate_matchings(3, "nope"))


def test_json_round_trip():
    m = mk_matching(range(1, 9), EX_CALLAN)
    data = matching_to_json_dict(m)
    assert data["support"] == list(range(1, 9))
    assert matching_from_json_dict(data) == m
    with pytest.raises(ValueError):
        matching_from_json_dict({"edges": []})


def test_sub_matching_on_sparse_support():
    comp = components(mk_matching(range(1, 9), EX_CALLAN))[1]
    assert comp.support == (2, 7, 8)
    assert match_stats(comp).down == 1


def test_mk_matching_refuses_non_integer_support():
    # 2.0 and True equal the ints 2 and 1 that the edges name
    for support in ([2.0, 1], [True, 2]):
        with pytest.raises(ValueError, match="support must be a collection of integers"):
            mk_matching(support, [((1, 0), (1, 1)), ((2, 0), (2, 1))])


# support, edges, the exact refusal: one case per check of mk_matching, in
# the order the checks run, and inputs with two faults, of which the
# earlier check speaks
REFUSALS = {
    "support-not-a-collection": (5, [], "support must be a collection of integers: 5"),
    "support-not-comparable": (
        [1, "a"], [], "support must be a collection of integers: [1, 'a']"
    ),
    "support-twice": ([1, 1], [], "support lists a value twice: [1, 1]"),
    "support-not-positive": ([0, 1], [], "support must contain positive integers"),
    "edge-not-a-pair": ([1], [[[1, 0]]], "edge must be a pair of vertices: [[1, 0]]"),
    "edge-not-a-sequence": ([1], [5], "edge must be a pair of vertices: 5"),
    "vertex-not-int-a": (
        [1], [[[1.5, 0], [1, 1]]], "vertex must be an [index, row] pair of integers: [1.5, 0]"
    ),
    "vertex-not-int-b": (
        [1], [[[1, 0], [1, True]]], "vertex must be an [index, row] pair of integers: [1, True]"
    ),
    "vertex-not-a-pair-b": (
        [1], [[[1, 0], [1]]], "vertex must be an [index, row] pair of integers: [1]"
    ),
    "vertex-not-int-a-before-b": (
        [1], [[[1, "0"], [1.5, 1]]], "vertex must be an [index, row] pair of integers: [1, '0']"
    ),
    "vertex-not-int-b-before-outside-a": (
        [1], [[[5, 0], [1, 1.0]]], "vertex must be an [index, row] pair of integers: [1, 1.0]"
    ),
    "self-pair": ([1], [[[1, 0], [1, 0]]], "vertex paired with itself: MVertex(index=1, row=0)"),
    "self-pair-before-outside": (
        [1], [[[5, 0], [5, 0]]], "vertex paired with itself: MVertex(index=5, row=0)"
    ),
    "outside-a": (
        [1], [[[2, 0], [1, 1]]], "vertex outside the support rows: MVertex(index=2, row=0)"
    ),
    "outside-b-row": (
        [1], [[[1, 0], [1, 2]]], "vertex outside the support rows: MVertex(index=1, row=2)"
    ),
    "outside-a-before-covered-b": (
        [1, 2],
        [[[1, 0], [1, 1]], [[3, 0], [1, 1]]],
        "vertex outside the support rows: MVertex(index=3, row=0)",
    ),
    "covered-twice-a": (
        [1, 2],
        [[[1, 0], [1, 1]], [[1, 0], [2, 1]]],
        "vertex covered twice: MVertex(index=1, row=0)",
    ),
    "covered-twice-b": (
        [1, 2],
        [[[1, 0], [1, 1]], [[2, 0], [1, 1]]],
        "vertex covered twice: MVertex(index=1, row=1)",
    ),
    "covered-twice-a-before-outside-b": (
        [1, 2],
        [[[1, 0], [1, 1]], [[1, 1], [2, 5]]],
        "vertex covered twice: MVertex(index=1, row=1)",
    ),
    "uncovered": (
        [1, 2],
        [[[1, 0], [1, 1]]],
        "uncovered vertices: [MVertex(index=2, row=0), MVertex(index=2, row=1)]",
    ),
    # a value that is not an int is refused before the slot table is built:
    # JSON reads 1e400 as inf, and none of these is named as a vertex
    "support-inf": ([math.inf], [], "support must be a collection of integers: [inf]"),
    "support-fraction": ([1.5], [], "support must be a collection of integers: [1.5]"),
    "support-bool-equal-to-a-value": (
        [1, True], [], "support must be a collection of integers: [1, True]"
    ),
    "support-bool-below-1": ([False], [], "support must be a collection of integers: [False]"),
    "support-equal-to-ints": (
        [2.0, 1],
        [[[1, 0], [1, 1]], [[2, 0], [2, 1]]],
        "support must be a collection of integers: [2.0, 1]",
    ),
}


@pytest.mark.parametrize("case_id", list(REFUSALS))
def test_mk_matching_refusal_text(case_id):
    support, edges, text = REFUSALS[case_id]
    with pytest.raises(ValueError) as exc:
        mk_matching(support, edges)
    assert str(exc.value) == text
    # matching JSON comes in through the same checks
    if isinstance(support, list):
        with pytest.raises(ValueError) as exc:
            matching_from_json_dict({"support": support, "edges": edges})
        assert str(exc.value) == text


def test_json_number_out_of_float_range_is_refused_as_support():
    with pytest.raises(ValueError) as exc:
        matching_from_json_dict(json.loads('{"support": [1e400], "edges": []}'))
    assert str(exc.value) == "support must be a collection of integers: [inf]"


# partner lists that are not involutions, on which a component walk that
# stops only at the vertex it started from goes round forever: from slot 1
# into slot 2 and back into slot 2; from slot 2 into slot 3, then slot 1,
# then slot 1 again
NOT_INVOLUTIONS = [(0, 0, 4, 2, 2, 4), (0, 0, 3, 2, 6, 7, 4, 2)]


@pytest.mark.parametrize("partner", NOT_INVOLUTIONS)
def test_walks_over_a_partner_list_that_is_not_an_involution_end(partner):
    m = PerfectMatching(support=tuple(range(1, len(partner) >> 1)), partner=partner)
    # each walk stops at the first slot it enters twice, after at most n steps
    with deadline(1):
        _gamma_inv_core(partner)
    with deadline(1):
        list(_component_walks(partner))
    with deadline(1):
        components(m)
