"""Seeded property tests of the notation parsers and the CLI contract.

The parsers must invert the formatters at sizes no enumeration reaches,
and no text over the notation's own alphabet may make ``stats`` or
``map gamma`` fail other than with exit status 2 and an ``error:`` line.
Every test is derandomized, so a run is reproducible.
"""

import contextlib
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cycledescent.bijections import SignedPermutation, format_signed, parse_signed
from cycledescent.cli import main
from cycledescent.perms import (
    Permutation,
    cycle_string,
    parse_permutation,
    statistics,
)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def permutations(draw, max_n=200):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@st.composite
def negative_cdes(draw):
    p = draw(permutations())
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
