import pytest

from cycledescent.poly import ONE, Q, T, X, Y, ZERO, MultiPoly
from cycledescent.statpolys import (
    IDENTITY_IDS,
    alternating_closed_form,
    b20_count,
    cdes_distribution_brute,
    cdes_distribution_rec,
    identity_check,
    klazar_count,
    recurrence_table,
    statistic_poly,
)


def test_statistic_poly_smallest_cases():
    assert statistic_poly(2, 2) == X * T**2  # only 21
    assert statistic_poly(2, 1) == Q**2 * T  # only the identity
    assert statistic_poly(3, 3).substitute(y=-1, q=1, t=1) == X + X**2


def test_statistic_poly_t_exponent_is_position():
    p = statistic_poly(4, 3)
    assert all(exps[3] == 3 for exps, _ in p.items())


def test_statistic_poly_caps():
    with pytest.raises(ValueError):
        statistic_poly(10, 1)
    with pytest.raises(ValueError):
        statistic_poly(4, 5)


def test_recurrence_table_bases():
    assert recurrence_table(1).entries == {1: ONE}
    assert recurrence_table(2).entries == {1: ONE, 2: X}
    assert recurrence_table(3).entries[1] == ONE + X  # total of the n=2 table


def test_recurrence_table_derangement_bases():
    assert recurrence_table(2, derangements=True).entries == {1: ZERO, 2: X}
    table3 = recurrence_table(3, derangements=True)
    assert table3.entries == {1: ZERO, 2: X * Y, 3: X**2}
    with pytest.raises(ValueError):
        recurrence_table(1, derangements=True)


def test_recurrence_rows_are_built_once_and_handed_out_as_copies():
    # the rows live for the process; a caller that edits its table's
    # entries changes no later call's table
    first = recurrence_table(6, derangements=True)
    want = dict(first.entries)
    first.entries.clear()
    assert recurrence_table(6, derangements=True).entries == want
    assert recurrence_table(6, derangements=True).entries is not want


def test_recurrence_matches_brute_force():
    for n in range(1, 7):
        table = recurrence_table(n)
        for i in range(1, n + 1):
            assert table.entries[i] == statistic_poly(n, i).substitute(q=1, t=1)
    for n in range(2, 7):
        table = recurrence_table(n, derangements=True)
        for i in range(1, n + 1):
            brute = statistic_poly(n, i, derangements=True).substitute(t=1)
            assert table.entries[i] == brute, (n, i)


def test_closed_forms():
    assert alternating_closed_form(4, 2) == ZERO
    assert alternating_closed_form(2, 2) == X * T**2
    assert alternating_closed_form(3, 2, derangements=True) == -X * T**2
    assert alternating_closed_form(5, 1) == T * (ONE + X) ** 3
    assert alternating_closed_form(5, 5) == MultiPoly.monomial(1, ex=1, et=5) * (ONE + X) ** 3
    with pytest.raises(ValueError):
        alternating_closed_form(4, 1, derangements=True)


def test_closed_form_matches_brute_small():
    for n in range(2, 7):
        for i in range(1, n + 1):
            value = statistic_poly(n, i).substitute(y=-1, q=1)
            assert value == alternating_closed_form(n, i), (n, i)
        for i in range(2, n + 1):
            value = statistic_poly(n, i, derangements=True).substitute(y=-1)
            assert value == alternating_closed_form(n, i, derangements=True), (n, i)


def test_derangement_alternating_example():
    # n=4, i=2 at y=-1 collapses to x
    value = statistic_poly(4, 2, derangements=True).substitute(y=-1, t=1)
    assert value == X


def test_cdes_distribution():
    assert cdes_distribution_rec(3).substitute(y=2).as_int() == 7
    assert cdes_distribution_rec(4, derangements=True).substitute(y=2).as_int() == 16
    assert cdes_distribution_rec(1, derangements=True) == ZERO
    for n in range(1, 7):
        assert cdes_distribution_rec(n) == cdes_distribution_brute(n)
        assert cdes_distribution_rec(n, derangements=True) == cdes_distribution_brute(
            n, derangements=True
        )


def test_klazar_sequence():
    assert [klazar_count(n) for n in range(1, 6)] == [1, 2, 7, 35, 226]
    assert klazar_count(7) == 16717
    for n in range(1, 13):
        assert klazar_count(n) == cdes_distribution_rec(n).substitute(y=2).as_int()


def test_b20_sequence():
    assert [b20_count(n) for n in range(1, 5)] == [0, 1, 3, 16]
    for n in range(1, 13):
        expected = cdes_distribution_rec(n, derangements=True).substitute(y=2).as_int()
        assert b20_count(n) == expected


def test_identity_brenti_n1():
    report = identity_check("brenti", 1)
    assert report.passed
    assert report.lhs == MultiPoly.constant(-1)


def test_identity_signed_sn_n3():
    report = identity_check("signed-sn", 3)
    assert report.passed
    assert report.rhs == 2 * T + 2 * T**3


def test_identity_kz_refined_n4():
    report = identity_check("kz-refined", 4)
    assert report.passed
    expected = ZERO
    for i in range(1, 4):
        expected = expected - MultiPoly.monomial(1, ex=4 - i, et=i)
    assert report.rhs == expected


def test_identity_signed_d_parity_values():
    assert identity_check("signed-d-parity", 4).rhs.as_int() == 1
    assert identity_check("signed-d-parity", 5).rhs.as_int() == 0


def test_all_identities_small():
    for ident in IDENTITY_IDS:
        start = 2 if ident in ("signed-sni", "signed-sn") else 1
        for n in range(start, 7):
            report = identity_check(ident, n)
            assert report.passed, (ident, n, str(report.lhs), str(report.rhs))


def test_identity_errors():
    with pytest.raises(ValueError):
        identity_check("unknown", 3)
    with pytest.raises(ValueError):
        identity_check("brenti", 10)


def test_identity_witness_on_forced_mismatch():
    # force a mismatch by checking signed-sn where its minimum n forbids it
    with pytest.raises(ValueError):
        identity_check("signed-sn", 1)


def test_witness_locates_leading_mismatch_contributor():
    from cycledescent.statpolys import _find_witness, _weight_exc_signed_cyc

    # pretend the n=3 sum is off by the x^2 term; 231 = (1 2 3) carries it
    diff = MultiPoly.monomial(1, ex=2)
    witness = _find_witness("all", 3, _weight_exc_signed_cyc, diff)
    assert witness is not None and "2 3 1" in witness
    # a monomial no permutation contributes to yields no witness
    assert _find_witness("all", 3, _weight_exc_signed_cyc, Q) is None
