"""Fault injection into the recurrence and closed-form checks of ``verify``.

Each case replaces one fast path of ``statpolys`` (the closed form, the
recurrence table, the cdes recurrence or an integer count) by one that is
wrong at one size, runs a suite through the CLI and compares every failure
it reports with recorded texts.  The brute-force sums these checks compare
against are left alone.
"""

import json

import pytest

from cycledescent import statpolys as sp
from cycledescent.cli import main
from cycledescent.poly import MultiPoly

REAL = {
    "alternating_closed_form": sp.alternating_closed_form,
    "recurrence_table": sp.recurrence_table,
    "cdes_distribution_rec": sp.cdes_distribution_rec,
    "klazar_count": sp.klazar_count,
    "b20_count": sp.b20_count,
}
X = MultiPoly.monomial(1, ex=1)
Y = MultiPoly.monomial(1, ey=1)


def closed_form_off(at_i, at_derangements):
    real = REAL["alternating_closed_form"]

    def fake(n, i, derangements=False):
        out = real(n, i, derangements)
        return out + 1 if (n, i, derangements) == (3, at_i, at_derangements) else out

    return fake


def table_off(at_derangements):
    real = REAL["recurrence_table"]

    def fake(n, derangements=False):
        out = real(n, derangements)
        if (n, derangements) == (3, at_derangements):
            out.entries[2] = out.entries[2] + X
        return out

    return fake


def cdes_rec_off(at_derangements):
    real = REAL["cdes_distribution_rec"]

    def fake(n, derangements=False):
        out = real(n, derangements)
        return out + Y if (n, derangements) == (3, at_derangements) else out

    return fake


# case id -> (suite, name of the faulty fast path, its fake, failures of
# ``verify <suite> --n-max 3`` as (check, n, witness))
CASES = {
    "closed-form-all": (
        "theorem-p", "alternating_closed_form", lambda: closed_form_off(2, False),
        [("closed-form-all", 3, "i=2: enumerated 0, closed form 1")],
    ),
    "closed-form-derangement": (
        "theorem-p", "alternating_closed_form", lambda: closed_form_off(3, True),
        [("closed-form-derangement", 3, "i=3: enumerated x^2*t^3, closed form x^2*t^3 + 1")],
    ),
    "recurrence-all": (
        "lemmas", "recurrence_table", lambda: table_off(False),
        [("recurrence-all", 3, "i=2: recurrence x*y + 2*x, enumerated x*y + x")],
    ),
    "recurrence-derangement": (
        "lemmas", "recurrence_table", lambda: table_off(True),
        [("recurrence-derangement", 3, "i=2: recurrence x*y + x, enumerated x*y")],
    ),
    "cdes-rec-all": (
        "theorem-b", "cdes_distribution_rec", lambda: cdes_rec_off(False),
        [
            ("cdes-poly-all", 3, "recurrence 2*y + 5, enumerated y + 5"),
            (
                "sequence-cross-check", 3,
                "integer recurrence 7, polynomial recurrence at y=2 gives 9",
            ),
        ],
    ),
    "cdes-rec-derangement": (
        "theorem-b", "cdes_distribution_rec", lambda: cdes_rec_off(True),
        [
            ("cdes-poly-derangement", 3, "recurrence 2*y + 1, enumerated y + 1"),
            ("sequence-cross-check", 3, "derangement recurrences disagree: 3 vs 5"),
        ],
    ),
    "klazar-count": (
        "theorem-b", "klazar_count", lambda: lambda n: REAL["klazar_count"](n) + (n == 3),
        [
            (
                "sequence-cross-check", 3,
                "integer recurrence 8, polynomial recurrence at y=2 gives 7",
            )
        ],
    ),
    "b20-count": (
        "theorem-b", "b20_count", lambda: lambda n: REAL["b20_count"](n) - (n == 3),
        [("sequence-cross-check", 3, "derangement recurrences disagree: 2 vs 3")],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_is_reported_with_its_exact_text(case, monkeypatch, capsys):
    suite, name, make, failures = CASES[case]
    monkeypatch.setattr(sp, name, make())
    code = main(["verify", suite, "--n-max", "3", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert [(f["check"], f["n"], f["witness"]) for f in data["failures"]] == failures
    assert code == 1
