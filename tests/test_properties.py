"""Seeded property tests of the notation parsers, the maps and the CLI contract.

The parsers must invert the formatters at sizes no enumeration reaches,
and no text over the notation's own alphabet may make ``stats`` or
``map gamma`` fail other than with exit status 2 and an ``error:`` line.
Beyond the exhaustive caps of ``verify``, ``psi`` and ``varphi`` keep
their involution laws and ``gamma``/``theta`` invert.  Every test is
derandomized, so a run is reproducible.
"""

import contextlib
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cycledescent import bijections as bj
from cycledescent.bijections import SignedPermutation, format_signed, parse_signed
from cycledescent.cli import main
from cycledescent.involutions import psi, varphi
from cycledescent.perms import (
    Permutation,
    cycle_string,
    parse_permutation,
    permutation_from_cycles,
    statistics,
)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def permutations(draw, max_n=200):
    n = draw(st.integers(min_value=1, max_value=max_n))
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


@SEEDED
@given(negative_cdes())
def test_gamma_roundtrip_beyond_the_cap(s):
    assert bj.gamma_inv(bj.gamma(s)) == s


@SEEDED
@given(negative_cdes(cyclic()))
def test_theta_roundtrip_beyond_the_cap(s):
    assert bj.theta_inv(bj.theta(s)) == s
