"""Fault injection into the checks of ``verify`` that compare two sides.

Most cases replace one fast path of ``statpolys`` (the closed form, the
recurrence table, the cdes recurrence, an integer count or an identity's
right-hand side) by one that is wrong at one size, runs a suite through the
CLI and compares every failure it reports with recorded texts.  The
brute-force sums these checks compare against are left alone, except where
a case breaks a brute-force sum, a fixed set, a weight or the edge kernel
of ``match_stats`` on purpose, to reach a return that no fast path can.  The
poly-ring-axioms cases draw the check's random polynomials as subclasses
of ``MultiPoly`` that get one operation wrong, so no other check sees the
fault.
"""

import json

import pytest

from cycledescent import bijections as bj
from cycledescent import involutions as iv
from cycledescent import matchings as mt
from cycledescent import statpolys as sp
from cycledescent import verify
from cycledescent.cli import main
from cycledescent.perms import Permutation
from cycledescent.poly import MultiPoly

REAL = {
    "alternating_closed_form": sp.alternating_closed_form,
    "recurrence_table": sp.recurrence_table,
    "cdes_distribution_rec": sp.cdes_distribution_rec,
    "klazar_count": sp.klazar_count,
    "b20_count": sp.b20_count,
    "_statistic_poly": sp._statistic_poly,
    "_IDENTITY_SPECS": sp._IDENTITY_SPECS,
    "psi_fixed_set": iv.psi_fixed_set,
    "_edge_counts": mt._edge_counts,
    "_random_poly": verify._random_poly,
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


def statistic_poly_off(at):
    n, *rest = at
    real = REAL["_statistic_poly"]

    def fake(tally, i, derangements=False):
        out = real(tally, i, derangements)
        return out + 1 if (tally, i, derangements) == (sp._tally(n), *rest) else out

    return fake


def brenti_rhs_off():
    family, weight, rhs = REAL["_IDENTITY_SPECS"]["brenti"]

    def fake_rhs(n):
        return rhs(n) + X if n == 3 else rhs(n)

    return {**REAL["_IDENTITY_SPECS"], "brenti": (family, weight, fake_rhs)}


def psi_fixed_set_with_a_cycle_descent():
    # (1 3 2) has one cycle descent; it joins the fixed set of psi(3, 1, .)
    real = REAL["psi_fixed_set"]
    return lambda n, i: real(n, i) | {Permutation((3, 1, 2))} if (n, i) == (3, 1) else real(n, i)


def psi_fixed_set_without_a_point():
    # (1)(2 3) leaves the fixed set of psi(3, 1, .): no cycle descent shows
    # it, only the weight of what is left
    real = REAL["psi_fixed_set"]
    return lambda n, i: real(n, i) - {Permutation((1, 3, 2))} if (n, i) == (3, 1) else real(n, i)


def signed_sni_unsigned():
    # the weight of signed-sni without its sign (-1)^cdes; signed-sn keeps
    # the real weight in its own row
    family, weight, rhs = REAL["_IDENTITY_SPECS"]["signed-sni"]

    def unsigned(k):
        return 1, (0, 0, 0, k.inv1)

    return {**REAL["_IDENTITY_SPECS"], "signed-sni": (family, unsigned, rhs)}


class NonCommuting(MultiPoly):
    """A product a * b off by a, so a * b != b * a unless a == b."""

    __slots__ = ()

    def __mul__(self, other):
        return MultiPoly.__mul__(self, other) + self


class NonDistributing(MultiPoly):
    """A product off by one, unless both factors are of this class."""

    __slots__ = ()

    def __mul__(self, other):
        out = MultiPoly.__mul__(self, other)
        return out if isinstance(other, NonDistributing) else out + 1


class NonSubstituting(MultiPoly):
    """A substitution off by one."""

    __slots__ = ()

    def substitute(self, **bindings):
        return MultiPoly.substitute(self, **bindings) + 1


def random_polys_as(cls):
    """``_random_poly`` with its draws (the same as the real one's) of class cls."""
    real = REAL["_random_poly"]
    return lambda rng: cls(dict(real(rng).items()))


# case id -> (suite, module, name of the faulty fast path, its fake, failures
# of ``verify <suite> --n-max 3`` as (check, n, witness))
CASES = {
    "closed-form-all": (
        "theorem-p", sp, "alternating_closed_form", lambda: closed_form_off(2, False),
        [("closed-form-all", 3, "i=2: enumerated 0, closed form 1")],
    ),
    "closed-form-derangement": (
        "theorem-p", sp, "alternating_closed_form", lambda: closed_form_off(3, True),
        [("closed-form-derangement", 3, "i=3: enumerated x^2*t^3, closed form x^2*t^3 + 1")],
    ),
    "recurrence-all": (
        "lemmas", sp, "recurrence_table", lambda: table_off(False),
        [("recurrence-all", 3, "i=2: recurrence x*y + 2*x, enumerated x*y + x")],
    ),
    "recurrence-derangement": (
        "lemmas", sp, "recurrence_table", lambda: table_off(True),
        [("recurrence-derangement", 3, "i=2: recurrence x*y + x, enumerated x*y")],
    ),
    "cdes-rec-all": (
        "theorem-b", sp, "cdes_distribution_rec", lambda: cdes_rec_off(False),
        [
            ("cdes-poly-all", 3, "recurrence 2*y + 5, enumerated y + 5"),
            (
                "sequence-cross-check", 3,
                "integer recurrence 7, polynomial recurrence at y=2 gives 9",
            ),
        ],
    ),
    "cdes-rec-derangement": (
        "theorem-b", sp, "cdes_distribution_rec", lambda: cdes_rec_off(True),
        [
            ("cdes-poly-derangement", 3, "recurrence 2*y + 1, enumerated y + 1"),
            ("sequence-cross-check", 3, "derangement recurrences disagree: 3 vs 5"),
        ],
    ),
    "klazar-count": (
        "theorem-b", sp, "klazar_count", lambda: lambda n: REAL["klazar_count"](n) + (n == 3),
        [
            (
                "sequence-cross-check", 3,
                "integer recurrence 8, polynomial recurrence at y=2 gives 7",
            )
        ],
    ),
    "b20-count": (
        "theorem-b", sp, "b20_count", lambda: lambda n: REAL["b20_count"](n) - (n == 3),
        [("sequence-cross-check", 3, "derangement recurrences disagree: 2 vs 3")],
    ),
    "closed-form-derangement-empty-sum": (
        "theorem-p", sp, "_statistic_poly", lambda: statistic_poly_off((3, 1, True)),
        [("closed-form-derangement", 3, "i=1: expected the empty sum")],
    ),
    "identity-with-witness": (
        "identities", sp, "_IDENTITY_SPECS", brenti_rhs_off,
        [
            (
                "identity-brenti", 3,
                "lhs -x^2 + 2*x - 1, rhs -x^2 + 3*x - 1; witness 1 3 2 = (1)(2 3)"
                " (first contributor to the leading mismatch)",
            )
        ],
    ),
    "psi-fixed-point-with-cycle-descent": (
        "involutions", iv, "psi_fixed_set", psi_fixed_set_with_a_cycle_descent,
        [
            ("psi-involution", 3, "i=1: fixed set mismatch (2 found)"),
            ("psi-fixed-weight", 3, "i=1: fixed point 3 1 2 has a cycle descent"),
        ],
    ),
    "psi-fixed-point-missing": (
        "involutions", iv, "psi_fixed_set", psi_fixed_set_without_a_point,
        [
            ("psi-involution", 3, "i=1: fixed set mismatch (2 found)"),
            ("psi-fixed-weight", 3, "i=1: enumerated x + 1, fixed set 1, closed x + 1"),
        ],
    ),
    "psi-fixed-weight-closed-form": (
        "involutions", sp, "alternating_closed_form",
        lambda: lambda n, i, derangements=False: (
            REAL["alternating_closed_form"](n, i, derangements)
            + (X if (n, i, derangements) == (3, 1, False) else 0)
        ),
        [("psi-fixed-weight", 3, "i=1: enumerated x + 1, fixed set x + 1, closed 2*x + 1")],
    ),
    "signed-sni-with-witness": (
        "identities", sp, "_IDENTITY_SPECS", signed_sni_unsigned,
        [
            (
                "identity-signed-sni", 3,
                "lhs 2*t^3 + 2*t^2 + 2*t, rhs 2*t^3 + 2*t; witness i=2: 2 1 3 = (1 2)(3)"
                " (first contributor to the leading mismatch)",
            )
        ],
    ),
    "poly-ring-axiom": (
        "identities", verify, "_random_poly", lambda: random_polys_as(NonCommuting),
        [("poly-ring-axioms", 1, "trial 0: ring axiom broken")],
    ),
    "poly-distributivity": (
        "identities", verify, "_random_poly", lambda: random_polys_as(NonDistributing),
        [("poly-ring-axioms", 1, "trial 0: distributivity broken")],
    ),
    "poly-substitution": (
        "identities", verify, "_random_poly", lambda: random_polys_as(NonSubstituting),
        [("poly-ring-axioms", 1, "trial 0: substitution does not commute")],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_is_reported_with_its_exact_text(case, monkeypatch, capsys):
    suite, module, name, make, failures = CASES[case]
    monkeypatch.setattr(module, name, make())
    code = main(["verify", suite, "--n-max", "3", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert [(f["check"], f["n"], f["witness"]) for f in data["failures"]] == failures
    assert code == 1


def global_form_down(partner):
    """The downline count that fits the row-of-partner form, read off
    gamma_inv of the matching with this partner list."""
    bump = 0 if partner[3] & 1 else 1  # key 3 is (1, 1)
    m = mt.PerfectMatching(support=tuple(range(1, len(partner) >> 1)), partner=partner)
    return len(bj.gamma_inv(m).neg) + bump


def test_downline_report_without_failures(monkeypatch, capsys):
    # an edge kernel whose downline count always fits the row-of-partner
    # form; the per-cycle form, which reads the same kernel on the images of
    # theta, then fails
    real = REAL["_edge_counts"]

    def fits(partner):
        up, _, ver = real(partner)
        return up, global_form_down(partner), ver

    monkeypatch.setattr(mt, "_edge_counts", fits)
    code = main(["verify", "bijections", "--n-max", "3", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert [(f["check"], f["n"], f["witness"]) for f in data["failures"]] == [
        ("downline-per-cycle", 1, "(1+): down=1, neg=0, bump=0")
    ]
    assert [(r["check"], r["n"], r["text"]) for r in data["notes"]] == [
        (
            "downline-global-report", n,
            f"row-of-partner form holds for {k}/{k} signed permutations; no failures",
        )
        for n, k in [(1, 1), (2, 2), (3, 7)]
    ]
    assert code == 1


def test_downline_report_names_the_signed_object_that_fails(monkeypatch, capsys):
    # the form fits every object but (1+ 3- 2+), the second sign set of its
    # permutation, so the note must name that set and not the first one
    real, odd_one = REAL["_edge_counts"], bj.gamma(bj.parse_signed("(1+ 3- 2+)")).partner

    def fits_but_one(partner):
        up, _, ver = real(partner)
        return up, global_form_down(partner) + (partner == odd_one), ver

    monkeypatch.setattr(mt, "_edge_counts", fits_but_one)
    code = main(["verify", "bijections", "--n-max", "3", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert [(f["check"], f["n"], f["witness"]) for f in data["failures"]] == [
        ("downline-per-cycle", 1, "(1+): down=1, neg=0, bump=0"),
        ("downline-per-cycle", 3, "(1+ 3- 2+): down=2, neg=1, bump=0"),
    ]
    assert [r["text"] for r in data["notes"] if r["n"] == 3] == [
        "row-of-partner form holds for 6/7 signed permutations;"
        " 1 failing inputs are cyclic; first failure (1+ 3- 2+)"
    ]
    assert code == 1
