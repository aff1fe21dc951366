"""The trusted construction paths against naive oracles, and the public
entry points against bad input.

Values built inside the package skip validation.  A permutation holds its
word alone: each read of its cycles, statistics, flattening or last
top-descent, and each public map of ``involutions`` and ``bijections``,
walks the word once with ``perms._walk_word``.  These tests check what
those reads give against a cycle walk written here, independent of the
package, check that reading leaves equality, hashing, ``repr`` and
pickling alone, and count the walks of every read and map.  The signed
permutations that the enumeration and the
inverse maps build without validation must be the values the public
constructor builds.  Values from outside still go through full validation
at the public constructors and parsers, and the CLI turns every rejection
into exit status 2.
"""

import io
import itertools
import pickle
import re

import pytest

from cycledescent import bijections as bj
from cycledescent import involutions as iv
from cycledescent import perms
from cycledescent.bijections import (
    SignedPermutation,
    enumerate_negative_cdes,
    gamma,
    gamma_inv,
    parse_signed,
    signed_from_json_dict,
    theta,
    theta_inv,
)
from cycledescent.caps import CAPS
from cycledescent.cli import main
from cycledescent.involutions import last_top_descent
from cycledescent.matchings import matching_from_json_dict, mk_matching
from cycledescent.perms import (
    FAMILIES,
    CycleDecomposition,
    Permutation,
    StatRecord,
    enumerate_permutations,
    hat,
    parse_permutation,
    permutation_from_cycles,
    standard_cycles,
    statistics,
)


def naive_cycles(word):
    """Standard cycles by the textbook walk: start each cycle at the
    smallest value not yet placed."""
    left = set(range(1, len(word) + 1))
    cycles = []
    while left:
        start = min(left)
        cycle = [start]
        v = word[start - 1]
        while v != start:
            cycle.append(v)
            v = word[v - 1]
        left -= set(cycle)
        cycles.append(tuple(cycle))
    return tuple(cycles)


def naive_stats(word):
    cycles = naive_cycles(word)
    cdes = {c[j] for c in cycles for j in range(1, len(c) - 1) if c[j] > c[j + 1]}
    return StatRecord(
        exc=sum(1 for i, v in enumerate(word, start=1) if v > i),
        fix=sum(1 for i, v in enumerate(word, start=1) if v == i),
        cyc=len(cycles),
        cdes=len(cdes),
        cdes_set=frozenset(cdes),
        inv1=word.index(1) + 1 if word else 0,
    )


def naive_top_descent(flat):
    """The entry at the last descent of a flattening, by a scan from the end."""
    for j in range(len(flat) - 2, -1, -1):
        if flat[j] > flat[j + 1]:
            return flat[j]
    return None


def family_streams(n):
    for family in FAMILIES:
        if family.endswith("_i"):
            for i in range(1, n + 1):
                yield f"{family} i={i}", enumerate_permutations(family, n, i)
        else:
            yield family, enumerate_permutations(family, n)
    yield "negative-cdes perms", (s.perm for s in enumerate_negative_cdes(n))


def check_trusted(p):
    fresh = Permutation(p.word)
    assert fresh == p and hash(fresh) == hash(p)
    cycles, stats = naive_cycles(p.word), naive_stats(p.word)
    assert standard_cycles(p).cycles == cycles
    assert statistics(p) == stats
    assert hat(p) == tuple(v for c in cycles for v in c)
    assert last_top_descent(p) == naive_top_descent(hat(p))
    # the reads above stored nothing that could show in any of these
    assert fresh == p and hash(fresh) == hash(p)
    assert repr(p) == repr(fresh) == f"Permutation({p.word!r})"
    assert pickle.dumps(p) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p)
    assert standard_cycles(back).cycles == cycles and statistics(back) == stats


@pytest.mark.parametrize("n", range(0, 8))
def test_cached_walk_matches_naive_walk(n):
    for name, stream in family_streams(n):
        for p in stream:
            check_trusted(p)


P7 = Permutation((3, 1, 4, 2, 7, 6, 5))  # (1 3 4 2)(5 7)(6)
SIGNED = SignedPermutation(P7, frozenset({4}))  # (1 3 4- 2)(5 7)(6)
CYCLIC = SignedPermutation(Permutation((3, 1, 4, 2)), frozenset({4}))  # (1 3 4- 2)
DERANGEMENT = Permutation((3, 1, 4, 2, 7, 5, 6))  # (1 3 4 2)(5 7 6), pi(2) = 1


def test_cache_is_per_instance_and_stable():
    # nothing is cached on a permutation or a matching: each read builds
    # its value anew from the fields, and equal reads give equal values
    m = gamma(SIGNED)
    for value in (P7, m):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.extra = None
    first = standard_cycles(P7)
    assert standard_cycles(P7) == first and str(first) == "(1 3 4 2)(5 7)(6)"
    assert statistics(P7) == statistics(P7) == naive_stats(P7.word)
    assert hat(P7) == hat(P7) == (1, 3, 4, 2, 5, 7, 6)
    assert last_top_descent(P7) == last_top_descent(P7) == 7
    assert m.edges == m.edges and len(m.edges) == P7.n


def count_walks(monkeypatch):
    """Patch ``_walk_word`` in every module that looks it up, and give the
    list that collects the word of each call."""
    walks = []
    real = perms._walk_word
    for module in (perms, iv, bj):
        monkeypatch.setattr(module, "_walk_word", lambda word: walks.append(word) or real(word))
    return walks


@pytest.mark.parametrize("read", [standard_cycles, statistics, hat, last_top_descent])
def test_one_cycle_walk_fills_the_whole_cache(monkeypatch, read):
    # each read walks the word once, and a second read walks it again
    walks = count_walks(monkeypatch)
    first = read(P7)
    assert walks == [P7.word]
    assert read(P7) == first
    assert walks == [P7.word, P7.word]


# map -> (the call, the permutation it walks)
MAP_CALLS = {
    "psi": (lambda: iv.psi(7, 2, P7), P7),
    "phi_map": (lambda: iv.phi_map(P7), P7),
    "varphi": (lambda: iv.varphi(7, 2, DERANGEMENT), DERANGEMENT),
    "m_index": (lambda: iv.m_index(P7), P7),
    "gamma": (lambda: bj.gamma(SIGNED), P7),
    "theta": (lambda: bj.theta(CYCLIC), CYCLIC.perm),
    "is_negative_cdes": (lambda: bj.is_negative_cdes(SIGNED), P7),
    "format_signed": (lambda: bj.format_signed(SIGNED), P7),
}


@pytest.mark.parametrize("name", sorted(MAP_CALLS))
def test_each_public_map_walks_its_input_once(monkeypatch, name):
    call, walked = MAP_CALLS[name]
    walks = count_walks(monkeypatch)
    first = call()
    assert walks == [walked.word]
    assert call() == first
    assert walks == [walked.word] * 2


@pytest.mark.parametrize("n", range(1, 7))
def test_gamma_and_theta_emit_canonical_matchings(n):
    for s in enumerate_negative_cdes(n):
        m = gamma(s)
        assert mk_matching(m.support, m.edges) == m
        if statistics(s.perm).cyc == 1:
            t = theta(s)
            assert mk_matching(t.support, t.edges) == t
            assert t == m


def check_trusted_signed(s):
    assert type(s.neg) is frozenset and all(type(v) is int for v in s.neg)
    public = SignedPermutation(Permutation(s.perm.word), set(s.neg))
    assert s == public and hash(s) == hash(public)
    assert repr(s) == repr(public)
    assert pickle.dumps(s) == pickle.dumps(public)


@pytest.mark.parametrize("n", range(0, 7))
def test_trusted_signed_permutations_match_the_public_constructor(n):
    for s in enumerate_negative_cdes(n):
        check_trusted_signed(s)
        check_trusted_signed(gamma_inv(gamma(s)))
        if statistics(s.perm).cyc == 1:
            check_trusted_signed(theta_inv(theta(s)))


# ---------------------------------------------------------------------------
# Public entry points keep rejecting bad values.


@pytest.mark.parametrize(
    "word", [(1, 1), (0, 1), (2, 3), (1, 2, 4), (1, "a"), ("b", "a"), (1.5, 1)]
)
def test_permutation_rejects(word):
    with pytest.raises(ValueError):
        Permutation(word)


@pytest.mark.parametrize("neg", [{4}, {0}, {3.0}, {True}, {2, 3.0}])
def test_signed_permutation_rejects(neg):
    # 3.0 and True equal values of 1..3 but name none of them
    with pytest.raises(ValueError):
        SignedPermutation(Permutation((3, 1, 2)), frozenset(neg))


@pytest.mark.parametrize(
    "cycles",
    [
        ((2, 1),),
        ((3, 4), (1, 2)),
        ((1, 2), (2, 3)),
        ((),),
        ((0, 1),),
        ((1, 2.5),),
        ((1, 2.0),),
        (("a",),),
        ((1, None),),
    ],
)
def test_cycle_decomposition_rejects(cycles):
    with pytest.raises(ValueError):
        CycleDecomposition(cycles)


# (cycles, n, the refusal that the CLI prints for them)
REFUSED_CYCLES = [
    ([(1, 2), (2, 3)], 3, "cycles do not cover 1..3 exactly once: 4 elements, missing []"),
    # overlapping, yet every slot consistent
    ([(1, 2), (2, 1)], 2, "cycles do not cover 1..2 exactly once: 4 elements, missing []"),
    # the same cycle twice
    ([(1, 2), (1, 2)], 2, "cycles do not cover 1..2 exactly once: 4 elements, missing []"),
    # repeated inside one cycle
    ([(1, 2, 1)], 2, "cycles do not cover 1..2 exactly once: 3 elements, missing []"),
    ([(1, 4), (2,), (3,)], 3, "cycle element outside 1..3: (1, 4)"),  # above n
    ([(0, 1), (2,)], 2, "cycle element outside 1..2: (0, 1)"),  # below 1
    ([(-1, 1), (2,)], 2, "cycle element outside 1..2: (-1, 1)"),
    ([(1, 2)], 3, "cycles do not cover 1..3 exactly once: 2 elements, missing [3]"),
    ([(1, 2), ()], 2, "empty cycle"),
    ([(1,)], 0, "cycle element outside 1..0: (1,)"),
    ([(1, 2.5)], 2, "cycle element outside 1..2: (1, 2.5)"),  # not an int
    # n elements, but one of them 0, which names the last slot as an index
    ([(0, 1)], 2, "cycle element outside 1..2: (0, 1)"),
    # values that are not ints, in range or only equal to one
    ([(1, 2.0)], 2, "cycle elements must be integers: (1, 2.0)"),
    ([(1, "a")], 2, "cycle elements must be integers: (1, 'a')"),
    ([(True, 2)], 2, "cycle elements must be integers: [True]"),
]


@pytest.mark.parametrize(
    "cycles, n, message",
    REFUSED_CYCLES,
    # a case is named by its position and n, not by its message
    ids=[f"cycles{k}-{n}" for k, (_, n, _) in enumerate(REFUSED_CYCLES)],
)
def test_permutation_from_cycles_rejects(cycles, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        permutation_from_cycles(cycles, n)


def test_permutation_from_cycles_refuses_each_bad_cycle_of_an_iterator():
    cycles = iter([(2,), (1, "a")])
    with pytest.raises(ValueError, match=r"^cycle elements must be integers: \(1, 'a'\)$"):
        permutation_from_cycles(cycles, 2)


UPLINES = mk_matching([1, 2], [((1, 0), (2, 1)), ((1, 1), (2, 0))])
TWO_VERTICALS = mk_matching([1, 2], [((1, 0), (1, 1)), ((2, 0), (2, 1))])
SHIFTED = mk_matching([2], [((2, 0), (2, 1))])
EMPTY = mk_matching([], [])


@pytest.mark.parametrize(
    "invert, m, message",
    [
        (gamma_inv, SHIFTED, "support must be exactly 1..n"),
        (gamma_inv, UPLINES, "matching has uplines"),
        (theta_inv, SHIFTED, "support must be exactly 1..l"),
        (theta_inv, EMPTY, "support must be exactly 1..l"),
        (theta_inv, UPLINES, "matching has uplines"),
        (theta_inv, TWO_VERTICALS, "matching is not connected"),
    ],
    ids=[
        "gamma-support",
        "gamma-uplines",
        "theta-support",
        "theta-empty",
        "theta-uplines",
        "theta-disconnected",
    ],
)
def test_inverse_maps_refuse_with_their_texts(invert, m, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        invert(m)


def test_permutation_from_cycles_accepts_any_rotation():
    assert permutation_from_cycles([(4, 2, 1, 3), (5,)], 5) == parse_permutation(
        "(1 3 4 2)(5)"
    )
    assert permutation_from_cycles([], 0) == Permutation(())


@pytest.mark.parametrize(
    "support, edges",
    [
        ([1, 2], [((1, 0), (1, 1))]),  # uncovered
        ([1], [((1, 0), (1, 0))]),  # self-pair
        ([1], [((1, 0), (2, 1)), ((1, 1), (2, 0))]),  # outside support
        ([1], [((1, 0), (1, 2))]),  # no such row
        ([0], [((0, 0), (0, 1))]),  # non-positive support
        (["a"], [((1, 0), (1, 1))]),
        ([[1]], [((1, 0), (1, 1))]),
        ([1], [(1, 2)]),  # flat edge
        ([1], [((1, 0), (1,))]),  # one-coordinate vertex
        ([1], [((1, 0), (1, 1, 0))]),  # three-coordinate vertex
        ([1], [((1, 0), (1, 1), (2, 0))]),  # three vertices
        ([1], [((1, 0),)]),  # lone vertex
        ([1], [(("a", 0), (1, 1))]),  # string coordinate
        ([1], [((None, 0), (1, 1))]),
        ([1], [7]),
        ([1, 1], [((1, 0), (1, 1))]),  # repeated support value
    ],
)
def test_mk_matching_rejects(support, edges):
    with pytest.raises(ValueError):
        mk_matching(support, edges)
    with pytest.raises(ValueError):
        matching_from_json_dict({"support": support, "edges": edges})


@pytest.mark.parametrize(
    "data", [[], "x", {"support": [1]}, {"support": 1, "edges": []}, {"support": [1], "edges": 5}]
)
def test_matching_json_rejects_bad_shapes(data):
    with pytest.raises(ValueError):
        matching_from_json_dict(data)


@pytest.mark.parametrize(
    "text", ["(1 2)(2 3)", "(1 3)", "(1 2", "() (1 2)", "0 2 1", "-1 2", "2 2 1", "", "(0 1)"]
)
def test_parse_permutation_rejects(text):
    with pytest.raises(ValueError):
        parse_permutation(text)


@pytest.mark.parametrize(
    "text", ["(1+ 1-)", "(1+ 3+)", "1+ 2+", "(1 x)", "(1 2)(2)", "", "(1+ 3 -2)", "(1 3 - 2)"]
)
def test_parse_signed_rejects(text):
    with pytest.raises(ValueError):
        parse_signed(text)


@pytest.mark.parametrize(
    "data",
    [
        {"one_line": [1, 1], "neg": []},
        {"one_line": [1, "a"], "neg": []},
        {"one_line": [2, 1], "neg": [3]},
        {"n": 3, "one_line": [2, 1], "neg": []},
        {"one_line": 5, "neg": []},
        {"one_line": [1]},
        [1, 2],
        # fields that are not arrays
        {"one_line": "", "neg": {}},
        {"one_line": [2, 1, 3], "neg": {}},
        {"one_line": [3, 1, 2], "neg": "3"},
    ],
)
def test_signed_from_json_dict_rejects(data):
    with pytest.raises(ValueError):
        signed_from_json_dict(data)


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "gamma-inv", "--input", '{"support":[1],"edges":[[1,2]]}'],
        ["map", "theta-inv", "--input", '{"support":[1],"edges":[[[1,0],[1]]]}'],
        ["map", "gamma-inv", "--input", '{"support":[1],"edges":[[[1,0],[1,1],[2,0]]]}'],
        # vertex coordinates must be ints: a float, a string or a bool names no vertex
        ["map", "gamma-inv", "--input", '{"support":[1],"edges":[[[1.5,0],[1.9,1]]]}'],
        ["map", "gamma-inv", "--input", '{"support":[1],"edges":[[["1",0],[true,1]]]}'],
        ["map", "gamma", "--input", '{"one_line":[1,"a"],"neg":[]}'],
        ["map", "gamma", "--input", '{"one_line": "", "neg": {}}'],
        ["verify", "lemmas", "--n-max", "2", "--jobs", "-3"],
        ["verify", "lemmas", "--n-max", "2", "--jobs", "0"],
        # sparse cycle text is refused before anything of its largest value is built
        ["map", "gamma", "--input", f"(1 2)({10**12})"],
        ["diagram", "--input", f"(1 2)({10**12})"],
        ["stats", "--perm", f"(1 2)({10**12})"],
        # values that only equal integers: 3.0 and true are no positions or values
        ["map", "gamma", "--input", '{"one_line":[3.0,1,2],"neg":[]}'],
        ["map", "gamma", "--input", '{"one_line":[true,2],"neg":[]}'],
        ["map", "gamma", "--input", '{"one_line":[3,1,2],"neg":[3.0]}'],
        ["map", "gamma", "--input", '{"one_line":[3,1,2],"neg":[true]}'],
        ["map", "gamma", "--input", '{"one_line":[3,1,2],"neg":[],"n":3.0}'],
    ],
)
def test_cli_bad_input_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("data", [5, None, "x", [1, 2]])
def test_json_that_is_no_object_is_refused_with_its_own_text(data):
    with pytest.raises(ValueError, match=r"^matching JSON must be an object$"):
        matching_from_json_dict(data)
    with pytest.raises(ValueError, match=r"^signed permutation JSON must be an object$"):
        signed_from_json_dict(data)


NEG_NOT_INTEGERS = "signed permutation JSON: 'n' and the 'neg' values must be integers"


# JSON of the wrong shape is refused with a text of the package, never with
# the TypeError that indexing or hashing it raises
@pytest.mark.parametrize(
    "argv, text",
    [
        (["map", "gamma-inv", "--input", "5"], "matching JSON must be an object"),
        (["map", "gamma-inv", "--input", "null"], "matching JSON must be an object"),
        (["map", "theta-inv", "--input", '"x"'], "matching JSON must be an object"),
        (["map", "gamma-inv", "--input", "[1,2]"], "matching JSON must be an object"),
        (["map", "gamma", "--input", '{"one_line": [1], "neg": [[1]]}'], NEG_NOT_INTEGERS),
        (["map", "theta", "--input", '{"one_line": [2, 1], "neg": [{}]}'], NEG_NOT_INTEGERS),
        (["map", "gamma", "--input", '{"one_line": [2, 1], "neg": ["1"]}'], NEG_NOT_INTEGERS),
        # missing keys and fields that are no lists keep their texts
        (
            ["map", "gamma-inv", "--input", '{"edges": []}'],
            "matching JSON must have 'support' and 'edges': 'support'",
        ),
        (
            ["map", "gamma-inv", "--input", '{"support": [1], "edges": 5}'],
            "matching JSON 'support' and 'edges' must be lists",
        ),
        (
            ["map", "gamma", "--input", '{"one_line": [1]}'],
            "signed permutation JSON needs 'one_line' and 'neg': 'neg'",
        ),
        (
            ["map", "gamma", "--input", '{"one_line": 5, "neg": []}'],
            "signed permutation JSON 'one_line' and 'neg' must be lists",
        ),
        # the type of n is checked last: a negative value out of range keeps its text
        (
            ["map", "gamma", "--input", '{"one_line": [2, 1], "neg": [5], "n": 2.0}'],
            "negative values outside 1..2: {5}",
        ),
    ],
)
def test_cli_refuses_json_of_the_wrong_shape_with_its_own_text(capsys, argv, text):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {text}\n")


@pytest.mark.parametrize("text", ["[" * 5000, '{"a": ' * 5000], ids=["arrays", "objects"])
@pytest.mark.parametrize(
    "argv", [["map", "gamma"], ["map", "gamma-inv"], ["map", "theta-inv"], ["diagram"]]
)
def test_cli_refuses_deeply_nested_json(capsys, monkeypatch, argv, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main([*argv, "--input", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["enum", "callan", "--n"], "CLI matching enumeration"),
        (["enum", "matchings", "--n"], "CLI matching enumeration"),
        (["enum", "ncdp", "--n"], "signed enumeration"),
        (["seq", "b21", "--n-max"], "sequence recurrences"),
        (["seq", "b20", "--n-max"], "sequence recurrences"),
        (["seq", "mn", "--n-max"], "CLI matching enumeration"),
        (["table", "psi", "--i", "5", "--n"], "involution tables"),
        (["table", "varphi", "--n"], "involution tables"),
    ],
)
def test_cli_refuses_one_past_each_cap(capsys, argv, cap):
    code = main([*argv, str(CAPS[cap] + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cap} capped at n <= {CAPS[cap]}")
    assert "Traceback" not in captured.err


def test_every_small_word_is_accepted_or_rejected_cleanly():
    for n in range(0, 4):
        for word in itertools.product(range(0, n + 2), repeat=n):
            try:
                p = Permutation(word)
            except ValueError:
                assert sorted(word) != list(range(1, n + 1))
            else:
                assert statistics(p) == naive_stats(p.word)
