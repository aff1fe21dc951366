import itertools
import math

import pytest

from cycledescent.perms import (
    CycleDecomposition,
    Permutation,
    cycle_string,
    enumerate_permutations,
    hat,
    inverse,
    parse_permutation,
    red,
    standard_cycles,
    statistics,
)


def test_parse_cycle_form():
    p = parse_permutation("(1 3 4 2)(5 7)(6)")
    assert p.word == (3, 1, 4, 2, 7, 6, 5)


def test_parse_one_line_identity():
    assert parse_permutation("1 2 3").word == (1, 2, 3)


def test_parse_single_cycle():
    # follow 1->2, 2->4, 4->3, 3->1
    assert parse_permutation("(1 2 4 3)").word == (2, 4, 1, 3)


def test_parse_commas_and_fixed_point_completion():
    assert parse_permutation("(1,3)(2)") == parse_permutation("(1 3)(2)")
    assert parse_permutation("(2 3)", n=4).word == (1, 3, 2, 4)


@pytest.mark.parametrize(
    "text",
    ["(1 2)(2 3)", "(1 3)", "(1 2", "() (1 2)", "0 2 1", "-1 2", "2 2 1", ""],
)
def test_parse_errors(text):
    with pytest.raises(ValueError):
        parse_permutation(text)


def test_standard_cycles():
    assert cycle_string(parse_permutation("3 1 4 2 7 6 5")) == "(1 3 4 2)(5 7)(6)"
    assert cycle_string(Permutation((1, 2, 3, 4))) == "(1)(2)(3)(4)"
    assert cycle_string(Permutation((2, 3, 1))) == "(1 2 3)"


def test_cycle_decomposition_invariants():
    with pytest.raises(ValueError):
        CycleDecomposition(((2, 1),))  # not smallest-first
    with pytest.raises(ValueError):
        CycleDecomposition(((3, 4), (1, 2)))  # minima not increasing
    with pytest.raises(ValueError):
        CycleDecomposition(((1, 2), (2, 3)))  # overlap


def test_statistics_worked_example():
    s = statistics(parse_permutation("3 1 4 2 7 6 5"))
    assert (s.exc, s.fix, s.cyc, s.cdes) == (3, 1, 3, 1)
    assert s.cdes_set == frozenset({4})
    assert s.inv1 == 2


def test_statistics_identity():
    s = statistics(Permutation((1, 2, 3, 4, 5)))
    assert (s.exc, s.fix, s.cyc, s.cdes) == (0, 5, 5, 0)
    assert s.cdes_set == frozenset()


def test_statistics_single_cycle():
    s = statistics(Permutation((2, 4, 1, 3)))  # (1 2 4 3)
    assert (s.exc, s.fix, s.cyc, s.cdes) == (2, 0, 1, 1)
    assert s.cdes_set == frozenset({4})


def test_inverse():
    assert inverse(Permutation((2, 3, 1))).word == (3, 1, 2)
    assert inverse(Permutation((1, 2))).word == (1, 2)
    invol = Permutation((2, 1))
    assert inverse(invol) == invol


def test_inverse_involutive_exhaustive():
    for p in enumerate_permutations("all", 5):
        assert inverse(inverse(p)) == p


def test_red():
    assert red((4, 6, 3)).word == (2, 3, 1)
    assert red((1, 2, 3)).word == (1, 2, 3)
    assert red((2, 8, 7)).word == (1, 3, 2)
    with pytest.raises(ValueError):
        red((2, 2))


def test_hat():
    p = parse_permutation("1 4 7 2 3 6 5")
    assert cycle_string(p) == "(1)(2 4)(3 7 5)(6)"
    assert hat(p) == (1, 2, 4, 3, 7, 5, 6)
    assert hat(Permutation((1, 2, 3))) == (1, 2, 3)
    assert hat(parse_permutation("(1 2 4 3)")) == (1, 2, 4, 3)


def test_red_of_hat_and_idempotence():
    for p in enumerate_permutations("all", 5):
        word = hat(p)
        assert red(word).n == p.n
        assert red(red(word).word) == red(word)


def test_rebuild_round_trip():
    for p in enumerate_permutations("all", 6):
        assert standard_cycles(p).to_permutation() == p


def test_exc_cyc_cdes_sum_exhaustive():
    for n in range(0, 9):
        for p in enumerate_permutations("all", n):
            s = statistics(p)
            assert s.exc + s.cyc + s.cdes == n
            assert s.fix <= s.cyc
            assert len(s.cdes_set) == s.cdes


def test_stream_cardinalities():
    assert sum(1 for _ in enumerate_permutations("all", 3)) == 6
    assert sum(1 for _ in enumerate_permutations("one_at_i", 4, 2)) == math.factorial(3)
    # independent derangement oracle
    der = [
        p
        for p in itertools.permutations(range(1, 5))
        if all(v != i for i, v in enumerate(p, start=1))
    ]
    assert len(der) == 9
    assert sum(1 for _ in enumerate_permutations("derangements", 4)) == len(der)
    total = sum(
        sum(1 for _ in enumerate_permutations("derangements_one_at_i", 5, i))
        for i in range(1, 6)
    )
    assert total == sum(1 for _ in enumerate_permutations("derangements", 5))


def test_streams_are_lexicographic_and_exact():
    words = [p.word for p in enumerate_permutations("one_at_i", 4, 3)]
    assert words == sorted(words)
    assert all(w[2] == 1 for w in words)


def test_stream_errors():
    with pytest.raises(ValueError):
        list(enumerate_permutations("one_at_i", 4, 5))
    with pytest.raises(ValueError):
        list(enumerate_permutations("one_at_i", 0, 1))
    with pytest.raises(ValueError):
        list(enumerate_permutations("nope", 3))
