"""Seeded property tests of the notation parsers, the maps and the CLI contract.

The parsers must invert the formatters at sizes no enumeration reaches,
and no text over the notation's own alphabet may make ``stats`` or
``map gamma`` fail other than with exit status 2 and an ``error:`` line.
Beyond the exhaustive caps of ``verify``, ``psi``, ``varphi`` and
``phi_map`` keep their involution laws, also on derangements up to n =
200 whose last cycle starts with a long staircase-shaped run, where
varphi's one scan finds its cut; ``gamma``/``theta`` invert and
carry the statistics over, and ``theta`` gives what the naive steps of
``matching_oracle`` give on cyclic objects of 8 to 300 values.  Signed
objects whose cycles are cut into long decreasing blocks make the same
trips, and Callan matchings drawn by the choices of the Callan stream make
the trips from the matching side and carry com and ver to the cycles and
fixed points of their inverse images, up to n = 200; a draw that joins
components first gives mostly connected matchings, on which theta's trip
runs at large n.  Matching
JSON and signed-permutation JSON, valid or broken, never make ``map`` or
``diagram`` print a traceback, and the key-based matching statistics
agree with a naive oracle on Callan and non-Callan matchings.  Every test
is derandomized or draws from a fixed seed, so a run is reproducible.
"""

import contextlib
import io
import json
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycledescent import bijections as bj
from cycledescent import involutions as iv
from cycledescent.bijections import (
    SignedPermutation,
    format_signed,
    parse_signed,
    signed_to_json_dict,
)
from cycledescent.cli import main
from cycledescent.involutions import phi_map, psi, varphi
from cycledescent.matchings import (
    MVertex,
    components,
    edge_class,
    is_callan,
    match_stats,
    matching_to_json_dict,
    mk_matching,
)
from cycledescent.perms import (
    Permutation,
    cycle_string,
    parse_permutation,
    permutation_from_cycles,
    standard_cycles,
    statistics,
)

from matching_oracle import naive_stats, naive_theta

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def permutations(draw, max_n=200, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@st.composite
def derangements(draw, max_n=50):
    """A derangement cut from a random arrangement into cycles of length >= 2."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    values = draw(st.permutations(range(1, n + 1)))
    cycles, start = [], 0
    while start < n:
        left = n - start
        size = left if left < 4 else draw(st.integers(min_value=2, max_value=left))
        if left - size == 1:
            size -= 1
        cycles.append(values[start : start + size])
        start += size
    return permutation_from_cycles(cycles, n)


@st.composite
def cyclic(draw, max_n=200):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return permutation_from_cycles([(1, *draw(st.permutations(range(2, n + 1))))], n)


@st.composite
def negative_cdes(draw, perms=permutations()):
    p = draw(perms)
    descents = sorted(statistics(p).cdes_set)
    signs = draw(st.lists(st.booleans(), min_size=len(descents), max_size=len(descents)))
    return SignedPermutation(perm=p, neg=frozenset(d for d, s in zip(descents, signs) if s))


@SEEDED
@given(negative_cdes())
def test_parse_signed_inverts_format_signed(s):
    assert parse_signed(format_signed(s)) == s


@SEEDED
@given(permutations())
def test_parse_permutation_inverts_both_notations(p):
    assert parse_permutation(cycle_string(p)) == p
    assert parse_permutation(str(p)) == p


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    # "--input -" reads standard input; give it nothing
    with mock.patch("sys.stdin", io.StringIO()), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an option-like value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(SEEDED, max_examples=300)
@given(st.text(alphabet="()0123456789+-, ", max_size=40))
def test_cli_notation_fuzz_exits_0_or_2(text):
    for argv in (["stats", "--perm", text], ["map", "gamma", "--input", text]):
        code, out, err = _run(argv)
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            assert "error: " in err


PAIRS = {
    "phi-split": "phi-merge",
    "phi-merge": "phi-split",
    "psi-case1": "psi-case2",
    "psi-case2": "psi-case1",
    "varphi-split": "varphi-merge",
    "varphi-merge": "varphi-split",
}


def assert_involution_law(apply, p, in_family):
    """One application of a sign-reversing involution at p, checked naively."""
    out = apply(p)
    assert in_family(out.image)
    walked = statistics(out.image).cdes - statistics(p).cdes
    assert out.delta_cdes == walked
    assert statistics(out.image).exc == statistics(p).exc
    back = apply(out.image)
    assert back.image == p
    if out.case_tag == "fixed":
        assert out.image == p and walked == 0
    else:
        assert out.image != p and abs(walked) == 1
        assert back.case_tag == PAIRS[out.case_tag]


@settings(SEEDED, max_examples=500)
@given(permutations(max_n=50).filter(lambda p: p.n >= 2))
def test_psi_involution_law_beyond_the_cap(p):
    n, i = p.n, p.word.index(1) + 1
    assert_involution_law(
        lambda q: psi(n, i, q), p, lambda q: q.n == n and q.word[i - 1] == 1
    )


@settings(SEEDED, max_examples=500)
@given(derangements())
def test_varphi_involution_law_beyond_the_cap(p):
    n, i = p.n, p.word.index(1) + 1
    assert_involution_law(
        lambda q: varphi(n, i, q),
        p,
        lambda q: q.n == n and q.word[i - 1] == 1 and statistics(q).fix == 0,
    )


@st.composite
def staircase_derangements(draw, max_n=200):
    """A derangement of 1..n, n <= max_n, whose last cycle starts with a
    long staircase-shaped run, and the length of the cycle's longest
    staircase-shaped prefix.

    The last cycle is its minimum and an increasing run, then a decreasing
    run of larger values, all above the entry before the maximum; then
    either one entry that breaks the shape (an ascent, or a descent below
    the entry before the maximum) and the rest of the cycle in drawn
    order, or nothing, when the whole cycle is staircase shaped.  The
    other cycles have the minima 1..c, below every value of the last cycle.
    Uniform cuts of uniform arrangements almost never give such a cycle.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    s = rng.randint(2, n)  # the length of the last cycle
    if n - s == 1:
        s = n
    c = rng.randint(1, (n - s) // 2) if n > s else 0
    values = rng.sample(range(c + 1, n + 1), n - c)
    cycles = [[j] for j in range(1, c + 1)]
    for k, v in enumerate(values[s:]):  # at least c values, one for each cycle
        cycles[k if k < c else rng.randrange(c)].append(v)
    own = sorted(values[:s])  # the values of the last cycle
    while True:
        cut = s if s < 4 or rng.random() < 0.5 else rng.randint(3, s - 1)
        shaped = [own[0], *sorted(rng.sample(own[1:], cut - 1))]
        r = rng.randint(2, cut)  # shaped[r - 2] is the entry before the maximum
        left = [v for v in own if v not in shaped]
        breaks = [v for v in left if v < shaped[r - 2] or (r < cut and v > shaped[r - 1])]
        if cut == s or breaks:
            break
    last = shaped[: r - 1] + shaped[r - 1 :][::-1]
    if cut < s:
        b = rng.choice(breaks)
        rest = [v for v in left if v != b]
        last += [b, *rng.sample(rest, len(rest))]
    return permutation_from_cycles([*cycles, last], n), cut


@settings(SEEDED, max_examples=100)
@given(staircase_derangements())
def test_varphi_on_long_staircase_prefixes_beyond_the_cap(drawn):
    # the one scan of varphi's cut on last cycles the uniform draws miss
    p, cut = drawn
    n, i = p.n, p.word.index(1) + 1
    cycles = standard_cycles(p).cycles
    assert iv._staircase_prefix(cycles[-1])[0] == cut
    assert_involution_law(
        lambda q: varphi(n, i, q),
        p,
        lambda q: q.n == n and q.word[i - 1] == 1 and statistics(q).fix == 0,
    )
    out = varphi(n, i, p)
    split = cut < len(cycles[-1])
    assert out.case_tag == ("varphi-split" if split else "varphi-merge" if cycles[:-1] else "fixed")
    assert iv._varphi_core(p.word, cycles) == (out.image.word, out.case_tag, out.delta_cdes)


def naive_phi_stats(p):
    """(flattening, last top-descent, exc, cdes) of p, read off cycles
    walked here: each from its minimum, in increasing order of minima."""
    seen, cycles = set(), []
    for start in range(1, p.n + 1):
        cyc, v = [], start
        while v not in seen:
            seen.add(v)
            cyc.append(v)
            v = p.word[v - 1]
        if cyc:
            cycles.append(cyc)
    flat = [v for cyc in cycles for v in cyc]
    tops = [a for a, b in zip(flat, flat[1:]) if a > b]
    exc = sum(v > i for i, v in enumerate(p.word, start=1))
    cdes = sum(a > b for cyc in cycles for a, b in zip(cyc, cyc[1:]))
    return flat, tops[-1] if tops else None, exc, cdes


# verify checks phi_map on all of S_n up to n = 8; these sizes lie beyond
@settings(SEEDED, max_examples=300)
@given(
    permutations(min_n=9, max_n=12).filter(lambda p: naive_phi_stats(p)[1] is not None)
)
def test_phi_map_laws_beyond_the_cap(p):
    flat, top, exc, cdes = naive_phi_stats(p)
    out = phi_map(p)
    assert (out.case_tag, out.delta_cdes) in (("phi-split", -1), ("phi-merge", 1))
    assert naive_phi_stats(out.image) == (flat, top, exc, cdes + out.delta_cdes)
    back = phi_map(out.image)
    assert back.image == p
    assert back.case_tag == PAIRS[out.case_tag]


@SEEDED
@given(negative_cdes())
def test_gamma_roundtrip_beyond_the_cap(s):
    assert bj.gamma_inv(bj.gamma(s)) == s


@SEEDED
@given(negative_cdes(cyclic()))
def test_theta_roundtrip_beyond_the_cap(s):
    assert bj.theta_inv(bj.theta(s)) == s


@st.composite
def long_blocks(draw, max_n=200):
    """A negative cdes permutation of 1..n, n <= max_n, with long blocks.

    The values are dealt into cycles of drawn lengths; each cycle is its
    minimum and then blocks of drawn lengths, often 8 or more values, each
    written decreasingly with every value but its last (smallest) negative.
    Uniform signs on uniform permutations almost never give such a block.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    values = rng.sample(range(1, n + 1), n)
    cycles, neg, start = [], set(), 0
    while start < n:
        end = rng.randint(start + 1, n)
        low = min(values[start:end])
        rest = [v for v in values[start:end] if v != low]  # in drawn order
        cycle, cut = [low], 0
        while cut < len(rest):
            stop = rng.randint(cut + 1, len(rest))
            block = sorted(rest[cut:stop], reverse=True)
            cycle += block
            neg.update(block[:-1])
            cut = stop
        cycles.append(cycle)
        start = end
    return SignedPermutation(perm=permutation_from_cycles(cycles, n), neg=frozenset(neg))


@settings(SEEDED, max_examples=60)
@given(long_blocks())
def test_long_blocks_beyond_the_cap(s):
    # a long block closed by an arc is unfolded by the sort the exhaustive
    # walks never reach with more than 7 values
    m = bj.gamma(s)
    assert bj.gamma_inv(m) == s
    stats, pstats = match_stats(m), statistics(s.perm)
    assert (stats.com, stats.ver) == (pstats.cyc, pstats.fix)
    if pstats.cyc == 1:
        assert bj.theta_inv(bj.theta(s)) == s


def _pairs_without_upline(keys):
    """Whether the free keys can be paired with no upline.  An upline joins
    an even (bottom) key k to an odd (top) key above k + 1; every other pair
    is allowed.  So an even count of even keys pairs in arcs, and an odd one
    needs one odd key at most the largest even key plus one."""
    evens = [k for k in keys if not k & 1]
    odds = [k for k in keys if k & 1]
    return len(evens) % 2 == 0 or odds[0] <= evens[-1] + 1


def _callan_partner_list(n, rng, connect=False):
    """The partner list of a Callan matching of 1..n, drawn by ``rng``.

    It makes the choices of the Callan stream, ``matchings._pairings``,
    drawing one where the stream tries each: the smallest free key a is
    paired with a later free key b, an odd b above a + 1 refused when a is
    even.  A drawn b that leaves keys with no Callan pairing is put back and
    another drawn.  So every Callan matching can occur, but not uniformly,
    and most draws have many components.  With ``connect``, b is drawn
    first among the keys in another component than a's (slots joined by the
    edges drawn so far), so most draws are connected, at every n.
    """
    partner = [0] * (2 * n + 2)
    free = list(range(2, 2 * n + 2))
    comp = list(range(n + 1))  # slot -> the least slot of its component so far
    while free:
        a = free.pop(0)
        choices = [b for b in free if a & 1 or not (b & 1 and b > a + 1)]
        near = []
        if connect:  # the edges that join two components, tried first
            near = [b for b in choices if comp[b >> 1] != comp[a >> 1]]
            choices = [b for b in choices if comp[b >> 1] == comp[a >> 1]]
        while True:
            keys = near or choices
            b = keys.pop(rng.randrange(len(keys)))
            rest = [k for k in free if k != b]
            if _pairs_without_upline(rest):
                break
        partner[a], partner[b] = b, a
        if connect:
            joined = {comp[a >> 1], comp[b >> 1]}
            comp = [min(joined) if c in joined else c for c in comp]
        free = rest
    return tuple(partner)


@st.composite
def callan_partner_lists(draw, max_n=200, connect=False):
    """A partner list of ``_callan_partner_list``, n <= max_n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return _callan_partner_list(n, rng, connect)


def _matching(partner):
    """The matching of a Callan partner list, built from its edges by the
    public constructor, which checks them."""
    n = len(partner) // 2 - 1
    edges = [((k >> 1, k & 1), (q >> 1, q & 1)) for k, q in enumerate(partner) if 1 < k < q]
    m = mk_matching(range(1, n + 1), edges)
    assert m.partner == partner and is_callan(m)
    return m


@settings(SEEDED, max_examples=60)
@given(callan_partner_lists())
def test_callan_matchings_beyond_the_cap(partner):
    # the round trip from the matching side, which verify reads off the
    # signed walk by counting, at sizes no enumeration reaches
    m = _matching(partner)
    s = bj.gamma_inv(m)
    assert bj.gamma(s) == m
    stats, pstats = match_stats(m), statistics(s.perm)
    assert (stats.com, stats.ver) == (pstats.cyc, pstats.fix)
    if stats.com == 1:
        assert bj.theta(bj.theta_inv(m)) == m
    if all(partner[k] != k + 1 for k in range(2, len(partner), 2)):  # no vertical
        assert pstats.fix == 0


@settings(SEEDED, max_examples=40)
@given(callan_partner_lists(connect=True))
def test_connected_callan_matchings_beyond_the_cap(partner):
    # the uniform draw above is seldom connected past small n; this one
    # mostly is, so theta's trip from the matching side runs at large n
    m = _matching(partner)
    if match_stats(m).com == 1:
        assert bj.theta(bj.theta_inv(m)) == m
    else:
        with pytest.raises(ValueError, match="not connected"):
            bj.theta_inv(m)


def test_connecting_draws_are_mostly_connected():
    rng = random.Random(29)
    draws = [_callan_partner_list(n, rng, connect=True) for n in range(20, 200, 20)]
    assert sum(match_stats(_matching(p)).com == 1 for p in draws) >= 6


def test_theta_matches_the_naive_steps_at_map_sizes():
    # the sizes of the map requests the CLI benchmark sends, where the
    # exhaustive checks of verify and of the kernel oracles never reach
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(8, 300)
        rest = list(range(2, n + 1))
        rng.shuffle(rest)
        p = permutation_from_cycles([(1, *rest)], n)
        s = SignedPermutation(
            perm=p, neg=frozenset(d for d in statistics(p).cdes_set if rng.random() < 0.5)
        )
        m = bj.theta(s)
        assert m == naive_theta(s)
        assert bj.theta_inv(m) == s


# ---------------------------------------------------------------------------
# Matching JSON through the CLI, and the key-based statistics.

JUNK = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.just(10**12),
    st.text(max_size=2),
    st.none(),
    st.just(1.5),
    st.just(2.0),
    st.booleans(),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
)


@st.composite
def sparse_pairings(draw, max_n=60):
    """A valid matching JSON dict: a random pairing on a random sparse support."""
    support = draw(
        st.lists(st.integers(min_value=1, max_value=10**12), max_size=max_n, unique=True)
    )
    vertices = draw(st.permutations([[i, r] for i in support for r in (0, 1)]))
    edges = [vertices[k : k + 2] for k in range(0, len(vertices), 2)]
    return {"support": support, "edges": edges}


@st.composite
def matching_json(draw):
    """Matching JSON text, valid or broken in one of the ways input can be."""
    data = draw(
        st.one_of(
            sparse_pairings(max_n=6),
            negative_cdes(permutations(max_n=6)).map(
                lambda s: matching_to_json_dict(bj.gamma(s))
            ),
        )
    )
    support, edges = data["support"], data["edges"]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        fault = draw(st.sampled_from(("drop", "repeat", "edge", "vertex", "support", "self")))
        if fault == "edge":
            edges.append(draw(st.one_of(JUNK, st.lists(JUNK, max_size=3))))
        elif fault == "support":
            support.append(draw(JUNK))
        elif edges:
            k = draw(st.integers(0, len(edges) - 1))
            a, b = edges[k] if isinstance(edges[k], list) and len(edges[k]) == 2 else (1, 1)
            if fault == "drop":
                edges.pop(k)
            elif fault == "repeat":
                edges.append(edges[k])
            elif fault == "vertex":
                edges[k] = [draw(st.one_of(JUNK, st.lists(JUNK, max_size=3))), b]
            else:  # a vertex paired with itself
                edges[k] = [a, a]
    if draw(st.integers(0, 9)) == 0:  # not a matching object at all
        data = draw(st.sampled_from(({"edges": edges}, [support, edges], {"support": 1})))
    return json.dumps(data)


@SEEDED
@given(matching_json())
def test_cli_matching_json_fuzz_exits_0_1_or_2(text):
    for argv in (
        ["map", "gamma-inv", "--input", text],
        ["map", "theta-inv", "--input", text],
        ["diagram", "--input", text],
        ["diagram", "--input", text, "--format", "svg"],
    ):
        code, out, err = _run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            assert "error: " in err


JSON_JUNK = st.one_of(
    JUNK, st.lists(JUNK, max_size=2), st.dictionaries(st.text(max_size=2), JUNK, max_size=2)
)


@st.composite
def signed_json(draw):
    """Signed-permutation JSON text, valid or broken in one field."""
    data = signed_to_json_dict(draw(negative_cdes(permutations(max_n=8))))
    key = draw(st.sampled_from((None, "n", "one_line", "neg")))
    if key is not None:
        value = data[key]
        fault = draw(st.sampled_from(("drop", "junk", "entry", "extra")))
        if fault == "drop":
            del data[key]
        elif fault == "junk":
            data[key] = draw(JSON_JUNK)
        elif key == "n":  # off by one either way
            data[key] = value + draw(st.sampled_from((-1, 1)))
        elif fault == "entry" and value:
            value[draw(st.integers(0, len(value) - 1))] = draw(JSON_JUNK)
        else:
            value.append(draw(JSON_JUNK))
    return json.dumps(data)


@settings(SEEDED, max_examples=300)
@given(signed_json())
def test_cli_signed_json_fuzz_exits_0_or_2(text):
    for argv in (
        ["map", "gamma", "--input", text],
        ["map", "theta", "--input", text],
        ["diagram", "--input", text],
    ):
        code, out, err = _run(argv)
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            assert "error: " in err


def test_diagram_on_a_huge_sparse_support_is_fast():
    text = json.dumps(
        {"support": [2, 10**12], "edges": [[[2, 0], [10**12, 1]], [[2, 1], [10**12, 0]]]}
    )
    start = time.perf_counter()
    code, out, _ = _run(["diagram", "--input", text, "--format", "text"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == (
        "row 1:             2 1000000000000\n"
        "row 0:             2 1000000000000\n"
        "arc:      -\n"
        "upline:   (2,0)-(1000000000000,1)\n"
        "downline: (2,1)-(1000000000000,0)\n"
        "vertical: -\n"
        "warning: matching has uplines (not Callan)\n"
    )


def assert_stats_match_oracle(m):
    kinds, supports = naive_stats(m)
    stats = match_stats(m)
    assert (stats.arc, stats.up, stats.down, stats.ver, stats.com) == (
        kinds["arc"], kinds["upline"], kinds["downline"], kinds["vertical"], len(supports)
    )
    assert is_callan(m) == (kinds["upline"] == 0)
    parts = components(m)
    assert [c.support for c in parts] == supports
    assert set(m.edges) == {e for c in parts for e in c.edges}


@SEEDED
@given(negative_cdes())
def test_key_stats_of_gamma_images_match_the_oracle(s):
    assert_stats_match_oracle(bj.gamma(s))


@SEEDED
@given(sparse_pairings())
def test_key_stats_of_sparse_pairings_match_the_oracle(data):
    assert_stats_match_oracle(mk_matching(data["support"], data["edges"]))


@SEEDED
@given(negative_cdes())
def test_statistic_transport_beyond_the_cap(s):
    stats, pstats = match_stats(bj.gamma(s)), statistics(s.perm)
    assert (stats.com, stats.ver) == (pstats.cyc, pstats.fix)


@SEEDED
@given(negative_cdes(cyclic()))
def test_downline_per_cycle_form_beyond_the_cap(s):
    m = bj.theta(s)
    closing = next(e for e in m.edges if MVertex(1, 1) in e)
    bump = 1 if edge_class(closing) == "downline" else 0
    assert match_stats(m).down == len(s.neg) + bump
