from functools import lru_cache
from itertools import permutations

import pytest

from cycledescent import involutions as iv
from cycledescent.involutions import (
    last_top_descent,
    m_index,
    phi_map,
    psi,
    psi_fixed_set,
    varphi,
    varphi_fixed_point,
)
from cycledescent.perms import (
    Permutation,
    cycle_string,
    enumerate_permutations,
    hat,
    parse_permutation,
    red,
    statistics,
)

P = parse_permutation


def test_last_top_descent():
    assert last_top_descent(P("(1)(2 4)(3 7 5)(6)")) == 7
    assert last_top_descent(Permutation((1, 2, 3))) is None
    assert last_top_descent(P("(1)(2 4 3)")) == 4


def test_phi_map_examples():
    out = phi_map(P("(1)(2 4)(3 7 5)(6)"))
    assert cycle_string(out.image) == "(1)(2 4)(3 7)(5)(6)"
    assert out.case_tag == "phi-split"
    out = phi_map(P("(1)(2 4)(3 7)(5)(6)"))
    assert cycle_string(out.image) == "(1)(2 4)(3 7 5)(6)"
    assert out.case_tag == "phi-merge"
    out = phi_map(P("(1)(2 4 3)"))
    assert cycle_string(out.image) == "(1)(2 4)(3)"


def test_phi_map_undefined_on_sorted_hat():
    with pytest.raises(ValueError):
        phi_map(Permutation((1, 2, 3, 4)))


def test_phi_preserves_hat_and_q():
    for p in enumerate_permutations("all", 6):
        if last_top_descent(p) is None:
            continue
        out = phi_map(p)
        assert hat(out.image) == hat(p)
        assert last_top_descent(out.image) == last_top_descent(p)
        assert statistics(out.image).exc == statistics(p).exc
        assert abs(out.delta_cdes) == 1
        assert out.delta_cdes == statistics(out.image).cdes - statistics(p).cdes
        assert phi_map(out.image).image == p


def test_m_index_examples():
    assert m_index(P("(1 2)(3 4)")) == 1
    assert m_index(P("(1 3 4 2)")) == 3
    assert m_index(P("(1 2 3 4)")) is None


def test_psi_table_examples():
    assert cycle_string(psi(4, 2, P("(1 2)(3)(4)")).image) == "(1 4 2)(3)"
    assert cycle_string(psi(4, 3, P("(1 4 2 3)")).image) == "(1 2 3)(4)"
    assert cycle_string(psi(4, 4, P("(1 2 4)(3)")).image) == "(1 3 2 4)"


def test_psi_case_tags_pair_up():
    out = psi(4, 2, P("(1 2)(3)(4)"))
    assert out.case_tag == "psi-case2"
    back = psi(4, 2, out.image)
    assert back.case_tag == "psi-case1"
    assert back.image == P("(1 2)(3)(4)")


def test_psi_fixed_sets_n4():
    assert {cycle_string(p) for p in psi_fixed_set(4, 1)} == {
        "(1)(2)(3)(4)",
        "(1)(2 3)(4)",
        "(1)(2)(3 4)",
        "(1)(2 3 4)",
    }
    assert psi_fixed_set(4, 2) == frozenset()
    assert psi_fixed_set(4, 3) == frozenset()
    assert {cycle_string(p) for p in psi_fixed_set(4, 4)} == {
        "(1 4)(2)(3)",
        "(1 4)(2 3)",
        "(1 3 4)(2)",
        "(1 2 3 4)",
    }


def test_psi_fixed_set_sizes():
    for n in range(2, 8):
        assert len(psi_fixed_set(n, 1)) == 2 ** (n - 2)
        assert len(psi_fixed_set(n, n)) == 2 ** (n - 2)
        for i in range(2, n):
            assert psi_fixed_set(n, i) == frozenset()


def test_psi_rejects_bad_input():
    with pytest.raises(ValueError):
        psi(4, 2, Permutation((1, 2, 3, 4)))  # value 1 not at position 2
    with pytest.raises(ValueError):
        psi(1, 1, Permutation((1,)))
    with pytest.raises(ValueError, match="bad arguments"):
        psi(5, 2, Permutation((2, 1, 3, 4)))  # a permutation of another size
    for i in (0, 5):
        with pytest.raises(ValueError, match="bad arguments"):
            psi(4, i, Permutation((2, 1, 3, 4)))


def test_psi_fixed_set_rejects_bad_input():
    with pytest.raises(ValueError, match="n >= 2"):
        psi_fixed_set(1, 1)
    for i in (0, 5):
        with pytest.raises(ValueError, match="index out of range"):
            psi_fixed_set(4, i)


def test_psi_involution_exhaustive_small():
    for n in range(2, 7):
        for i in range(1, n + 1):
            fixed = psi_fixed_set(n, i)
            seen_fixed = set()
            for p in enumerate_permutations("one_at_i", n, i):
                out = psi(n, i, p)
                assert psi(n, i, out.image).image == p
                assert statistics(out.image).exc == statistics(p).exc
                naive = statistics(out.image).cdes - statistics(p).cdes
                if out.case_tag == "fixed":
                    assert out.delta_cdes == 0 == naive
                    seen_fixed.add(p)
                else:
                    assert abs(out.delta_cdes) == 1
                    assert out.delta_cdes == naive
            assert seen_fixed == set(fixed)


def test_varphi_fixed_point_shape():
    assert cycle_string(varphi_fixed_point(6, 3)) == "(1 2 6 5 4 3)"
    s = statistics(varphi_fixed_point(7, 4))
    assert s.exc == 3 and s.cdes == 3 and s.fix == 0  # x^(i-1), (-1)^(n-i)


def test_varphi_table_examples():
    assert cycle_string(varphi(4, 2, P("(1 2)(3 4)")).image) == "(1 3 4 2)"
    out = varphi(4, 2, P("(1 4 3 2)"))
    assert out.case_tag == "fixed" and out.image == P("(1 4 3 2)")
    assert cycle_string(varphi(4, 4, P("(1 3 2 4)")).image) == "(1 4)(2 3)"


def test_varphi_corrected_fixed_point_n4_i3():
    # the published table misprints this row; the involution forces (1 2 4 3)
    out = varphi(4, 3, P("(1 2 4 3)"))
    assert out.case_tag == "fixed"
    assert varphi(4, 3, P("(1 4 2 3)")).case_tag != "fixed"


def test_varphi_rejects_bad_input():
    with pytest.raises(ValueError):
        varphi(4, 2, P("(1 2)(3)(4)"))  # has fixed points
    with pytest.raises(ValueError):
        varphi(4, 1, P("(1 2 3 4)"))  # i = 1 impossible for derangements
    with pytest.raises(ValueError, match="size mismatch"):
        varphi(5, 2, P("(1 2)(3 4)"))
    with pytest.raises(ValueError, match="index out of range"):
        varphi(4, 5, P("(1 2)(3 4)"))
    with pytest.raises(ValueError, match="does not place the value 1"):
        varphi(4, 3, P("(1 2)(3 4)"))  # 1 sits at position 2


def test_varphi_fixed_point_rejects_bad_index():
    for i in (1, 5):
        with pytest.raises(ValueError, match="index out of range"):
            varphi_fixed_point(4, i)


def _staircase_by_ranks(seq):
    """The predicate on the rank word: red(seq) is 1, 2, .., r-1, s, s-1, .., r."""
    ranks = red(tuple(seq)).word
    s = len(ranks)
    if s < 2:
        return False
    top = ranks.index(s)
    return ranks[:top] == tuple(range(1, top + 1)) and ranks[top:] == tuple(
        range(s, top, -1)
    )


# an increasing relabelling of 1..8 onto values with gaps
SPARSE = (3, 4, 7, 10, 11, 15, 20, 26)


@pytest.mark.parametrize("k", range(9))
def test_staircase_on_values_is_the_rank_word_test(k):
    # the one scan of varphi's cut on every order pattern of length k, on the
    # values 1..k and on values with gaps: the staircase-shaped prefixes are
    # exactly those of length 2 up to the cut, and top is the position of the
    # cut prefix's maximum.  The oracle reads the rank word alone, so it is
    # asked once per prefix of the word on 1..k, which many words share
    oracle = lru_cache(maxsize=None)(_staircase_by_ranks)
    for word in permutations(range(1, k + 1)):
        shaped = [j for j in range(k + 1) if oracle(word[:j])]
        for seq in (word, tuple(SPARSE[v - 1] for v in word)):
            cut, top = iv._staircase_prefix(seq)
            assert shaped == list(range(2, cut + 1)), seq
            if cut >= 2:
                assert seq[top] == max(seq[:cut]), seq


def test_varphi_involution_exhaustive_small():
    for n in range(2, 7):
        for i in range(2, n + 1):
            fp = varphi_fixed_point(n, i)
            fixed_seen = set()
            for p in enumerate_permutations("derangements_one_at_i", n, i):
                out = varphi(n, i, p)
                assert varphi(n, i, out.image).image == p, (n, i, str(p))
                assert statistics(out.image).exc == statistics(p).exc
                if out.case_tag == "fixed":
                    fixed_seen.add(p)
                else:
                    assert abs(out.delta_cdes) == 1
                    assert out.delta_cdes == statistics(out.image).cdes - statistics(p).cdes
                    assert out.case_tag in ("varphi-merge", "varphi-split")
            assert fixed_seen == {fp}, (n, i)


@pytest.mark.parametrize("n", range(2, 8))
def test_stated_delta_is_the_walked_delta(n):
    """Each branch states its cdes delta; a naive walk of every image agrees."""

    def naive(p, out):
        return statistics(out.image).cdes - statistics(p).cdes

    for p in enumerate_permutations("all", n):
        if last_top_descent(p) is not None:
            out = phi_map(p)
            assert out.delta_cdes == naive(p, out), (str(p), out.case_tag)
    for i in range(1, n + 1):
        for p in enumerate_permutations("one_at_i", n, i):
            out = psi(n, i, p)
            assert out.delta_cdes == naive(p, out), (i, str(p), out.case_tag)
        if i >= 2:
            for p in enumerate_permutations("derangements_one_at_i", n, i):
                out = varphi(n, i, p)
                assert out.delta_cdes == naive(p, out), (i, str(p), out.case_tag)
