import math

import pytest

from cycledescent.matchings import (
    MVertex,
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
