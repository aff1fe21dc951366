"""
Statistic polynomials over permutation families, by brute force and by
recurrence, plus the classical signed identities they specialize to.

The central object is the generating polynomial of (exc, cdes, fix) over
the permutations with the value 1 at a fixed position i, with t marking
that position:

    statistic_poly(n, i)  =  sum over {pi : pi(i) = 1} of
                             x^exc(pi) * y^cdes(pi) * q^fix(pi) * t^i

Everything here is exact integer arithmetic; brute-force sums are the
oracle and the recurrences are the fast path checked against it.  Every
brute-force sum reads one tally of S_n per size, keyed by (exc, fix, cyc,
cdes, position of 1, last entry) and built by inserting 1, ..., n into the
cycle form, which reaches every permutation of [n] and reads each key off
the insertion in O(1).  Each public sum checks its arguments and hands
``_tally(n)`` to a private core that reads only the tally it is given;
``verify`` builds the tally as a walk and calls the cores on it, so no
module but this one reads the tally's keys.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from typing import Callable, NamedTuple

from ._records import Record
from .caps import CHECK_LAYOUT, check_cap
from .perms import (
    Permutation,
    cycle_string,
    enumerate_permutations,
    statistics,
)
from .poly import ONE, T, X, Y, ZERO, MultiPoly

__all__ = [
    "PolyTable",
    "IdentityReport",
    "statistic_poly",
    "recurrence_table",
    "alternating_closed_form",
    "cdes_distribution_brute",
    "cdes_distribution_rec",
    "klazar_count",
    "b20_count",
    "IDENTITY_IDS",
    "IDENTITY_MIN_N",
    "identity_check",
]


class PolyTable(Record):
    """Polynomials indexed by the position i of the value 1, i = 1..n."""

    __slots__ = __match_args__ = ("n", "entries")
    n: int
    entries: dict[int, MultiPoly]

    def __init__(self, n: int, entries: dict[int, MultiPoly]) -> None:
        self.n = n
        self.entries = entries


class IdentityReport(Record):
    __slots__ = __match_args__ = ("identity_id", "n", "passed", "lhs", "rhs", "witness")
    identity_id: str
    n: int
    passed: bool
    lhs: MultiPoly
    rhs: MultiPoly
    witness: str | None

    def __init__(
        self,
        identity_id: str,
        n: int,
        passed: bool,
        lhs: MultiPoly,
        rhs: MultiPoly,
        witness: str | None = None,
    ) -> None:
        self.identity_id = identity_id
        self.n = n
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs
        self.witness = witness


class _Key(NamedTuple):
    """The statistics that every brute-force sum in this module weighs."""

    exc: int
    fix: int
    cyc: int
    cdes: int
    inv1: int
    last: int  # pi(n); 0 for the empty permutation


Tally = tuple[tuple[_Key, int], ...]  # (key, how many permutations carry it)


def _key(p: Permutation) -> _Key:
    s = statistics(p)
    return _Key(s.exc, s.fix, s.cyc, s.cdes, s.inv1, p.word[-1] if p.word else 0)


@lru_cache(maxsize=None)
def _tally(n: int) -> Tally:
    """How many permutations of [n] carry each key: the one tally of S_n
    that every brute-force sum here reads.

    Built depth first over the cycle form, inserting m = 1, 2, ..., n: m is
    either a new fixed point or goes right after some a < m, and every leaf
    is one permutation of [n].  With b = pi(a), inserting m after a sets
    pi(a) = m and pi(m) = b, so each statistic changes by a term read off
    a and b alone:

    - exc gains 1 - [b > a], since a -> m ascends and m -> b descends;
    - fix loses [b == a];
    - cdes gains [b > a], so exc + cdes gains exactly 1.  When b is the
      minimum of a's cycle, b <= a and m becomes the cycle's last element,
      so cdes is unchanged; else m is a new interior descent and a,
      followed now by m, no longer is one;
    - pi^-1(1) becomes m when b == 1, and pi(n) is b at the last level.

    A new fixed point adds 1 to fix and to cyc and is its own pi(n).
    """
    if n < 0:
        raise ValueError("negative size")
    check_cap("brute force", n)
    if n == 0:
        return ((_Key(0, 0, 0, 0, 0, 0), 1),)
    succ = [0] * (n + 1)  # succ[a] = pi(a) on the values inserted so far
    counts: defaultdict[tuple[int, ...], int] = defaultdict(int)

    def grow(m: int, exc: int, fix: int, cyc: int, cdes: int, inv1: int) -> None:
        if m == n:
            for a in range(1, n):
                b = succ[a]
                counts[
                    exc + (b <= a),
                    fix - (b == a),
                    cyc,
                    cdes + (b > a),
                    n if b == 1 else inv1,
                    b,
                ] += 1
            counts[exc, fix + 1, cyc + 1, cdes, inv1, n] += 1
            return
        for a in range(1, m):
            b = succ[a]
            succ[a], succ[m] = m, b
            grow(
                m + 1,
                exc + (b <= a),
                fix - (b == a),
                cyc,
                cdes + (b > a),
                m if b == 1 else inv1,
            )
            succ[a] = b
        succ[m] = m
        grow(m + 1, exc, fix + 1, cyc + 1, cdes, inv1)

    grow(1, 0, 0, 0, 0, 1)  # 1 is at position 1 until some m goes before it
    return tuple((_Key(*key), count) for key, count in counts.items())


# family of perms.FAMILIES -> membership test on (key, i)
_IN_FAMILY: dict[str, Callable[[_Key, int | None], bool]] = {
    "all": lambda k, i: True,
    "one_at_i": lambda k, i: k.inv1 == i,
    "derangements": lambda k, i: k.fix == 0,
    "derangements_one_at_i": lambda k, i: k.fix == 0 and k.inv1 == i,
}

Term = tuple[int, tuple[int, int, int, int]]  # (sign, exponents of x, y, q, t)
Weight = Callable[[_Key], Term]


def _weighted_sum(family: str, tally: Tally, weight: Weight, i: int | None = None) -> MultiPoly:
    """Sum of ``weight`` = (sign, exponents) over a family, read off a tally."""
    in_family = _IN_FAMILY[family]
    counts: dict[tuple[int, int, int, int], int] = {}
    for key, count in tally:
        if in_family(key, i):
            sign, exps = weight(key)
            counts[exps] = counts.get(exps, 0) + sign * count
    return MultiPoly(counts)


def _weight_statistic(k: _Key) -> Term:
    return 1, (k.exc, k.cdes, k.fix, k.inv1)


def _weight_cdes(k: _Key) -> Term:
    return 1, (0, k.cdes, 0, 0)


def statistic_poly(n: int, i: int, derangements: bool = False) -> MultiPoly:
    """Exact (x, y, q, t) generating polynomial over {pi : pi(i) = 1}.

    With ``derangements=True`` the sum is restricted to fixed-point-free
    permutations (the q exponent is then always 0).  Every term carries
    t-exponent i.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index out of range: i={i}, n={n}")
    return _statistic_poly(_tally(n), i, derangements)


def _statistic_poly(tally: Tally, i: int, derangements: bool = False) -> MultiPoly:
    """The core of :func:`statistic_poly`, read off the tally of its size."""
    family = "derangements_one_at_i" if derangements else "one_at_i"
    return _weighted_sum(family, tally, _weight_statistic, i)


# Empties the tally, so the next brute-force sum of any size builds it
# afresh; benchmarks call it to time a cold sum.
statistic_poly.cache_clear = _tally.cache_clear  # type: ignore[attr-defined]


# Each family's recurrence rows, keyed by the derangement flag: the tables
# P[0], P[1], .. with their totals, and the cdes distributions b[0], b[1],
# ..; each grows on demand, so each row is built once per process, as the
# tally is.  _YM1_POWERS holds (y - 1)^0, (y - 1)^1, .., also built once.
_TABLE_ROWS: dict[bool, tuple[list[dict[int, MultiPoly]], list[MultiPoly]]] = {
    False: ([{}, {1: ONE}], [ONE, ONE]),  # the empty and the singleton table
    True: ([{}, {1: ZERO}], [ONE, ZERO]),
}
_CDES_ROWS: dict[bool, list[MultiPoly]] = {False: [ZERO, ONE], True: [ONE, ZERO]}
_YM1_POWERS = [ONE]


def recurrence_table(n: int, derangements: bool = False) -> PolyTable:
    """Table of the (x, y) polynomials at q = 1 (or q = 0) and t = 1, built
    bottom-up from the deletion recurrence

        P[m, i] = x*total(P[m-2]) + x*sum(P[m-1, j], j=2..i-1)
                            + y*sum(P[m-1, j], j=i..m-1)      for i >= 2,

    with P[m, 1] = total(P[m-1]) in the unrestricted case.  The
    fixed-point-free variant keeps the same shape with bases
    total(P[0]) = 1, total(P[1]) = 0 and P[m, 1] = 0 for m >= 2 (the value
    1 cannot sit at position 1 in a derangement); those bases are the
    unique ones reproducing brute force at small sizes.  Each row of each
    family is built once per process, as the tally is; every call gets its
    own copy of the entries.
    """
    if derangements:
        if n < 2:
            raise ValueError("derangement table needs n >= 2")
    elif n < 1:
        raise ValueError("table needs n >= 1")
    tables, totals = _TABLE_ROWS[derangements]
    for m in range(len(tables), n + 1):
        prev = tables[m - 1]
        row: dict[int, MultiPoly] = {}
        row[1] = ZERO if derangements else totals[m - 1]
        for i in range(2, m + 1):
            acc = X * totals[m - 2]
            for j in range(2, i):
                acc = acc + X * prev[j]
            for j in range(i, m):
                acc = acc + Y * prev[j]
            row[i] = acc
        total = ZERO
        for p in row.values():
            total = total + p
        totals.append(total)
        tables.append(row)
    return PolyTable(n=n, entries=dict(tables[n]))


def alternating_closed_form(n: int, i: int, derangements: bool = False) -> MultiPoly:
    """Closed form of the statistic polynomial at y = -1 (and q = 1 or 0).

    Unrestricted (q = 1):  t*(1+x)^(n-2) for i = 1, zero for 1 < i < n,
    t^n*x*(1+x)^(n-2) for i = n.  Fixed-point-free (q = 0):
    (-1)^(n-i)*x^(i-1)*t^i for 2 <= i <= n.
    """
    if n < 2:
        raise ValueError("closed form needs n >= 2")
    if not 1 <= i <= n:
        raise ValueError(f"index out of range: i={i}, n={n}")
    if derangements:
        if i == 1:
            raise ValueError("fixed-point-free closed form needs i >= 2")
        sign = 1 if (n - i) % 2 == 0 else -1
        return MultiPoly.monomial(sign, ex=i - 1, et=i)
    if i == 1:
        return T * (ONE + X) ** (n - 2)
    if i == n:
        return MultiPoly.monomial(1, ex=1, et=n) * (ONE + X) ** (n - 2)
    return ZERO


def cdes_distribution_brute(n: int, derangements: bool = False) -> MultiPoly:
    """Sum of y^cdes over all permutations (or all derangements) of [n]."""
    return _cdes_distribution_brute(_tally(n), derangements)


def _cdes_distribution_brute(tally: Tally, derangements: bool = False) -> MultiPoly:
    """The core of :func:`cdes_distribution_brute`, read off the tally of its size."""
    return _weighted_sum("derangements" if derangements else "all", tally, _weight_cdes)


def _ym1_power(e: int) -> MultiPoly:
    """(y - 1)^e, each power built once per process."""
    while len(_YM1_POWERS) <= e:
        _YM1_POWERS.append(_YM1_POWERS[-1] * (Y - ONE))
    return _YM1_POWERS[e]


def cdes_distribution_rec(n: int, derangements: bool = False) -> MultiPoly:
    """The same distribution computed by recurrence, as a polynomial in y.

    Unrestricted:  b[1] = 1 and
        b[m+1] = b[m] + sum(b[i] * C(m, i-1) * (y-1)^(m-i), i=1..m).
    Fixed-point-free:  b[0] = 1, b[1] = 0 and
        b[m+1] = sum(C(m, i) * (b[i+1] + b[i]) * (y-1)^(m-i-1), i=0..m-1).

    Each b[m] of each family is built once per process, as the tally is.
    """
    if derangements:
        if n < 0:
            raise ValueError("negative size")
    elif n < 1:
        raise ValueError("size must be >= 1")
    b = _CDES_ROWS[derangements]
    for m in range(len(b) - 1, n):
        if derangements:
            acc = ZERO
            for i in range(0, m):
                term = (b[i + 1] + b[i]) * _ym1_power(m - i - 1)
                acc = acc + math.comb(m, i) * term
        else:
            acc = b[m]
            for i in range(1, m + 1):
                acc = acc + math.comb(m, i - 1) * b[i] * _ym1_power(m - i)
        b.append(acc)
    return b[n]


def klazar_count(n: int) -> int:
    """Number of sign-enriched cycle-descent permutations of [n], via the
    integer recurrence  c[m+1] = c[m] + sum(c[m+1-i] * C(m, i), i=1..m).

    This is the y = 2 specialization of the unrestricted recurrence and is
    kept as an independent integer-only path for cross-checks.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    c = [0, 1]
    for m in range(1, n):
        c.append(c[m] + sum(c[m + 1 - i] * math.comb(m, i) for i in range(1, m + 1)))
    return c[n]


def b20_count(n: int) -> int:
    """Derangement analogue of :func:`klazar_count` (y = 2, q = 0)."""
    if n < 0:
        raise ValueError("negative size")
    c = [1, 0]
    for m in range(1, n):
        c.append(
            sum(math.comb(m, i) * (c[i + 1] + c[i]) for i in range(0, m))
        )
    return c[n]


# ---------------------------------------------------------------------------
# Signed identities.  Each identity pairs a brute-force weighted enumeration
# (the lhs) with an independently built closed form (the rhs).


def _weight_exc_signed_cyc(k: _Key) -> Term:
    return (-1) ** k.cyc, (k.exc, 0, 0, 0)


def _weight_exc_signed_cyc_tlast(k: _Key) -> Term:
    return (-1) ** k.cyc, (k.exc, 0, 0, k.last)


def _weight_signed_cdes_t(k: _Key) -> Term:
    return (-1) ** k.cdes, (0, 0, 0, k.inv1)


def _weight_exc_signed_cdes_t(k: _Key) -> Term:
    return (-1) ** k.cdes, (k.exc, 0, 0, k.inv1)


def _weight_signed_cdes(k: _Key) -> Term:
    return (-1) ** k.cdes, (0, 0, 0, 0)


def _geometric_negative(n: int) -> MultiPoly:
    # -x - x^2 - ... - x^(n-1)
    acc = ZERO
    for j in range(1, n):
        acc = acc - MultiPoly.monomial(1, ex=j)
    return acc


def _rhs_refined(n: int) -> MultiPoly:
    # sum over i = 1..n-1 of -x^(n-i) * t^i, t marking the last entry pi(n)
    acc = ZERO
    for i in range(1, n):
        acc = acc - MultiPoly.monomial(1, ex=n - i, et=i)
    return acc


def _rhs_signed_d_t(n: int) -> MultiPoly:
    acc = ZERO
    for i in range(2, n + 1):
        sign = 1 if (n - i) % 2 == 0 else -1
        acc = acc + MultiPoly.monomial(sign, ex=i - 1, et=i)
    return acc


def _rhs_signed_sn(n: int) -> MultiPoly:
    return 2 ** (n - 2) * (T + T**n)


# id -> (domain family, weight, rhs builder); the least n of each identity is
# that of its check in the verify layout of ``caps``
_IDENTITY_SPECS: dict[str, tuple[str, Weight, Callable[[int], MultiPoly]]] = {
    "brenti": ("all", _weight_exc_signed_cyc, lambda n: -((X - ONE) ** (n - 1))),
    "kz-total": ("derangements", _weight_exc_signed_cyc, _geometric_negative),
    "kz-refined": ("derangements", _weight_exc_signed_cyc_tlast, _rhs_refined),
    # t marks pi(i) = 1, so the per-position sums of signed-sni are the t^i
    # coefficients of signed-sn's sum: the two forms are one equation
    "signed-sni": ("all", _weight_signed_cdes_t, _rhs_signed_sn),
    "signed-sn": ("all", _weight_signed_cdes_t, _rhs_signed_sn),
    "signed-d-t": ("derangements", _weight_exc_signed_cdes_t, _rhs_signed_d_t),
    "signed-d-parity": (
        "derangements",
        _weight_signed_cdes,
        lambda n: MultiPoly.constant((1 - (-1) ** (n - 1)) // 2),
    ),
}

IDENTITY_IDS = tuple(_IDENTITY_SPECS)
IDENTITY_MIN_N = {i: CHECK_LAYOUT[f"identity-{i}"][0] for i in IDENTITY_IDS}


def _find_witness(family: str, n: int, weight: Weight, diff: MultiPoly) -> str | None:
    lead = diff.sorted_terms()[0][0]
    for p in enumerate_permutations(family, n):
        if weight(_key(p))[1] == lead:
            return f"{p} = {cycle_string(p)} (first contributor to the leading mismatch)"
    return None


def identity_check(identity_id: str, n: int) -> IdentityReport:
    """Check one signed identity at size n by exhaustive enumeration.

    Identity ids:

    - ``brenti``: sum over all pi of x^exc * (-1)^cyc = -(x-1)^(n-1).
    - ``kz-total``: the same sum over derangements = -x - ... - x^(n-1).
    - ``kz-refined``: derangements split by the last entry pi(n) = i give
      -x^(n-i) each; t marks pi(n) in the report.
    - ``signed-sni``: per position of the value 1, sum of (-1)^cdes * t^i is
      2^(n-2)*t, zero, or 2^(n-2)*t^n.
    - ``signed-sn``: summed over all pi this is 2^(n-2)*(t + t^n).
    - ``signed-d-t``: over derangements, sum of x^exc * (-1)^cdes *
      t^{pos of 1} = sum_i (-1)^(n-i) * x^(i-1) * t^i.
    - ``signed-d-parity``: sum over derangements of (-1)^cdes is 1 for even
      n and 0 for odd n.
    """
    if identity_id not in _IDENTITY_SPECS:
        raise ValueError(f"unknown identity id: {identity_id!r}")
    min_n = IDENTITY_MIN_N[identity_id]
    if n < min_n:
        raise ValueError(f"identity {identity_id!r} needs n >= {min_n}")
    return _identity_check(_tally(n), identity_id, n)


def _identity_check(tally: Tally, identity_id: str, n: int) -> IdentityReport:
    """The core of :func:`identity_check`, read off the tally of size n."""
    family, weight, rhs_fn = _IDENTITY_SPECS[identity_id]
    lhs = _weighted_sum(family, tally, weight)
    rhs = rhs_fn(n)
    passed = lhs == rhs
    witness = None
    if identity_id == "signed-sni" and not passed:
        # name the least position i of the value 1 whose sum fails
        terms = (lhs - rhs).sorted_terms()
        i = min(exps[3] for exps, _ in terms)
        at_i = MultiPoly({exps: c for exps, c in terms if exps[3] == i})
        found = _find_witness(family, n, weight, at_i)
        witness = f"i={i}: {found}" if found else f"i={i}"
    elif not passed:
        witness = _find_witness(family, n, weight, lhs - rhs)
    return IdentityReport(identity_id, n, passed, lhs, rhs, witness)
