"""
Exhaustive verification suites behind the ``verify`` CLI command.

Each check is a pure function of a size n returning (passed, detail); a
suite is a set of checks, each with its own size cap chosen so that the
whole battery stays desk-scale.  Checks at different sizes are
independent, so a suite can fan out over a process pool.

Informational checks never fail: they attach their findings to the
summary's notes (used for the downline formula, whose textbook global
form is known not to survive beyond connected matchings).
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import bijections as bj
from . import involutions as iv
from . import matchings as mt
from . import statpolys as sp
from .perms import enumerate_permutations, hat, statistics
from .poly import MultiPoly, ZERO

__all__ = [
    "CheckOutcome",
    "VerificationSummary",
    "SUITES",
    "suite_cap",
    "run_verification",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20260809


@dataclass
class CheckOutcome:
    check_id: str
    n: int
    passed: bool
    detail: str


@dataclass
class VerificationSummary:
    suite: str
    n_lo: int
    n_hi: int
    checks_run: int
    failures: list[CheckOutcome] = field(default_factory=list)
    notes: list[CheckOutcome] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 0 if not self.failures else 1

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n_range": [self.n_lo, self.n_hi],
            "checks_run": self.checks_run,
            "failures": [
                {"check": f.check_id, "n": f.n, "witness": f.detail}
                for f in self.failures
            ],
            "notes": [
                {"check": r.check_id, "n": r.n, "text": r.detail} for r in self.notes
            ],
        }


# ---------------------------------------------------------------------------
# Check bodies.  Signature: fn(n, seed) -> (passed, detail).


def _check_closed_form(n: int, seed: int, derangements: bool = False) -> tuple[bool, str]:
    if derangements and not sp.statistic_poly(n, 1, derangements=True).is_zero():
        return False, "i=1: expected the empty sum"
    for i in range(2 if derangements else 1, n + 1):
        brute = sp.statistic_poly(n, i, derangements).substitute(y=-1, q=1)
        closed = sp.alternating_closed_form(n, i, derangements)
        if brute != closed:
            return False, f"i={i}: enumerated {brute}, closed form {closed}"
    return True, f"{n} positions match"


def _check_recurrence(n: int, seed: int, derangements: bool = False) -> tuple[bool, str]:
    table = sp.recurrence_table(n, derangements)
    for i in range(1, n + 1):
        brute = sp.statistic_poly(n, i, derangements).substitute(q=1, t=1)
        if table.entries[i] != brute:
            return False, f"i={i}: recurrence {table.entries[i]}, enumerated {brute}"
    return True, f"{n} table cells match"


def _check_cdes_poly(n: int, seed: int, derangements: bool = False) -> tuple[bool, str]:
    rec = sp.cdes_distribution_rec(n, derangements)
    brute = sp.cdes_distribution_brute(n, derangements)
    if rec != brute:
        return False, f"recurrence {rec}, enumerated {brute}"
    return True, f"distribution {rec}"


def _check_sequence_cross(n: int, seed: int) -> tuple[bool, str]:
    a = sp.klazar_count(n)
    b = sp.cdes_distribution_rec(n).substitute(y=2).as_int()
    if a != b:
        return False, f"integer recurrence {a}, polynomial recurrence at y=2 gives {b}"
    c = sp.b20_count(n)
    d = sp.cdes_distribution_rec(n, derangements=True).substitute(y=2).as_int()
    if c != d:
        return False, f"derangement recurrences disagree: {c} vs {d}"
    return True, f"counts {a} and {c}"


def _make_identity_check(identity_id: str) -> Callable[[int, int], tuple[bool, str]]:
    def check(n: int, seed: int) -> tuple[bool, str]:
        report = sp.identity_check(identity_id, n)
        if report.passed:
            return True, f"lhs = rhs = {report.rhs}"
        detail = f"lhs {report.lhs}, rhs {report.rhs}"
        if report.witness:
            detail += f"; witness {report.witness}"
        return False, detail

    return check


def _random_poly(rng: random.Random) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 3) for _ in range(4))
        terms[exps] = terms.get(exps, 0) + rng.randint(-5, 5)
    return MultiPoly(terms)


def _check_poly_axioms(n: int, seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    for trial in range(60):
        a, b, c = (_random_poly(rng) for _ in range(3))
        if (a + b) + c != a + (b + c) or a * b != b * a:
            return False, f"trial {trial}: ring axiom broken"
        if a * (b + c) != a * b + a * c:
            return False, f"trial {trial}: distributivity broken"
        binding = {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)}
        lhs = (a * b + c).substitute(**binding)
        rhs = a.substitute(**binding) * b.substitute(**binding) + c.substitute(**binding)
        if lhs != rhs:
            return False, f"trial {trial}: substitution does not commute"
    return True, "60 random trials"


_PHI_PAIRS = {"phi-split": "phi-merge", "phi-merge": "phi-split"}
_PSI_PAIRS = {**_PHI_PAIRS, "psi-case1": "psi-case2", "psi-case2": "psi-case1"}
_VARPHI_PAIRS = {"varphi-merge": "varphi-split", "varphi-split": "varphi-merge"}


def _check_psi_involution(n: int, seed: int) -> tuple[bool, str]:
    total = 0
    for i in range(1, n + 1):
        expected_fixed = iv.psi_fixed_set(n, i)
        seen_fixed = set()
        for p in enumerate_permutations("one_at_i", n, i):
            total += 1
            out = iv.psi(n, i, p)
            back = iv.psi(n, i, out.image)
            if back.image != p:
                return False, f"i={i}, pi={p}: not an involution"
            s0, s1 = statistics(p), statistics(out.image)
            if s1.exc != s0.exc:
                return False, f"i={i}, pi={p}: excedances not preserved"
            if out.case_tag == "fixed":
                if out.delta_cdes != 0 or out.image != p:
                    return False, f"i={i}, pi={p}: bad fixed point"
                seen_fixed.add(p)
            else:
                if abs(out.delta_cdes) != 1:
                    return False, f"i={i}, pi={p}: cdes delta {out.delta_cdes}"
                if back.case_tag != _PSI_PAIRS[out.case_tag]:
                    return False, (
                        f"i={i}, pi={p}: branch {out.case_tag} paired with"
                        f" {back.case_tag}"
                    )
        if seen_fixed != set(expected_fixed):
            return False, f"i={i}: fixed set mismatch ({len(seen_fixed)} found)"
        want = 0 if 1 < i < n else 2 ** (n - 2)
        if len(expected_fixed) != want:
            return False, f"i={i}: fixed set has size {len(expected_fixed)}, want {want}"
    return True, f"{total} applications across {n} positions"


def _signed_weight(p) -> MultiPoly:
    s = statistics(p)
    return MultiPoly.monomial((-1) ** s.cdes, ex=s.exc)


def _check_psi_fixed_weight(n: int, seed: int) -> tuple[bool, str]:
    for i in range(1, n + 1):
        brute = sp.statistic_poly(n, i).substitute(y=-1, q=1, t=1)
        fixed_weight = ZERO
        for p in iv.psi_fixed_set(n, i):
            if statistics(p).cdes:
                return False, f"i={i}: fixed point {p} has a cycle descent"
            fixed_weight = fixed_weight + _signed_weight(p)
        closed = sp.alternating_closed_form(n, i).substitute(t=1)
        if not (brute == fixed_weight == closed):
            return False, (
                f"i={i}: enumerated {brute}, fixed set {fixed_weight}, closed {closed}"
            )
    return True, f"{n} positions collapse"


def _check_varphi_involution(n: int, seed: int) -> tuple[bool, str]:
    total = 0
    for i in range(2, n + 1):
        fp = iv.varphi_fixed_point(n, i)
        fixed_seen = set()
        for p in enumerate_permutations("derangements_one_at_i", n, i):
            total += 1
            out = iv.varphi(n, i, p)
            back = iv.varphi(n, i, out.image)
            if back.image != p:
                return False, f"i={i}, pi={p}: not an involution"
            if statistics(out.image).exc != statistics(p).exc:
                return False, f"i={i}, pi={p}: excedances not preserved"
            if out.case_tag == "fixed":
                fixed_seen.add(p)
                if out.delta_cdes != 0:
                    return False, f"i={i}, pi={p}: fixed point with cdes delta"
            else:
                if abs(out.delta_cdes) != 1:
                    return False, f"i={i}, pi={p}: cdes delta {out.delta_cdes}"
                if back.case_tag != _VARPHI_PAIRS[out.case_tag]:
                    return False, f"i={i}, pi={p}: branch pairing broken"
        if fixed_seen != {fp}:
            return False, f"i={i}: fixed set {fixed_seen}, expected {{{fp}}}"
        signed_sum = sp.statistic_poly(n, i, derangements=True).substitute(y=-1, t=1)
        closed = sp.alternating_closed_form(n, i, derangements=True).substitute(t=1)
        if signed_sum != closed:
            return False, f"i={i}: signed sum {signed_sum}, closed {closed}"
    return True, f"{total} applications across {n - 1} positions"


def _check_phi_preservation(n: int, seed: int) -> tuple[bool, str]:
    moved = 0
    for p in enumerate_permutations("all", n):
        if iv.last_top_descent(p) is None:
            continue
        moved += 1
        out = iv.phi_map(p)
        if hat(out.image) != hat(p):
            return False, f"pi={p}: flattened word changed"
        if iv.last_top_descent(out.image) != iv.last_top_descent(p):
            return False, f"pi={p}: top-descent changed"
        if statistics(out.image).exc != statistics(p).exc:
            return False, f"pi={p}: excedances changed"
        if abs(out.delta_cdes) != 1:
            return False, f"pi={p}: cdes delta {out.delta_cdes}"
        back = iv.phi_map(out.image)
        if back.image != p or back.case_tag != _PHI_PAIRS[out.case_tag]:
            return False, f"pi={p}: split/merge pairing broken"
    return True, f"{moved} permutations moved"


def _check_count_callan(n: int, seed: int, derangements: bool = False) -> tuple[bool, str]:
    family = "callan_no_vertical" if derangements else "callan"
    m_count = sum(1 for _ in mt.enumerate_matchings(n, family))
    rec = sp.b20_count(n) if derangements else sp.klazar_count(n)
    flt = "derangement" if derangements else "all"
    signed = sum(1 for _ in bj.enumerate_negative_cdes(n, flt))
    if not (m_count == rec == signed):
        return False, f"matchings {m_count}, recurrence {rec}, signed perms {signed}"
    return True, f"all three give {rec}"


def _check_gamma_image(n: int, seed: int) -> tuple[bool, str]:
    inputs = list(bj.enumerate_negative_cdes(n))
    image = {bj.gamma(s) for s in inputs}
    if len(image) != len(inputs):
        return False, f"gamma not injective: {len(inputs)} inputs, {len(image)} images"
    target = set(mt.enumerate_matchings(n, "callan"))
    if image != target:
        return False, f"image has {len(image)} matchings, target {len(target)}"
    return True, f"bijection on {len(inputs)} objects"


def _check_theta_image(n: int, seed: int) -> tuple[bool, str]:
    inputs = [
        s for s in bj.enumerate_negative_cdes(n) if statistics(s.perm).cyc == 1
    ]
    image = {bj.theta(s) for s in inputs}
    if len(image) != len(inputs):
        return False, f"theta not injective on {len(inputs)} inputs"
    target = {
        m for m in mt.enumerate_matchings(n, "callan") if mt.match_stats(m).com == 1
    }
    if image != target:
        return False, f"image has {len(image)} matchings, target {len(target)}"
    return True, f"bijection on {len(inputs)} cyclic objects"


def _check_gamma_roundtrip(n: int, seed: int) -> tuple[bool, str]:
    count = 0
    for s in bj.enumerate_negative_cdes(n):
        count += 1
        if bj.gamma_inv(bj.gamma(s)) != s:
            return False, f"round trip broke at {s}"
    for m in mt.enumerate_matchings(n, "callan"):
        if bj.gamma(bj.gamma_inv(m)) != m:
            return False, f"reverse round trip broke at {m}"
    return True, f"{count} signed permutations and as many matchings"


def _check_theta_roundtrip(n: int, seed: int) -> tuple[bool, str]:
    count = 0
    for s in bj.enumerate_negative_cdes(n):
        if statistics(s.perm).cyc != 1:
            continue
        count += 1
        if bj.theta_inv(bj.theta(s)) != s:
            return False, f"round trip broke at {s}"
    return True, f"{count} cyclic signed permutations"


def _check_transport(n: int, seed: int) -> tuple[bool, str]:
    count = 0
    for s in bj.enumerate_negative_cdes(n):
        count += 1
        stats = mt.match_stats(bj.gamma(s))
        pstats = statistics(s.perm)
        if stats.com != pstats.cyc or stats.ver != pstats.fix:
            return False, (
                f"{s}: com={stats.com} cyc={pstats.cyc}"
                f" ver={stats.ver} fix={pstats.fix}"
            )
    return True, f"components/verticals match on {count} objects"


def _check_derangement_restriction(n: int, seed: int) -> tuple[bool, str]:
    inputs = list(bj.enumerate_negative_cdes(n, "derangement"))
    image = {bj.gamma(s) for s in inputs}
    target = set(mt.enumerate_matchings(n, "callan_no_vertical"))
    if len(image) != len(inputs) or image != target:
        return False, f"{len(inputs)} inputs, {len(image)} images, {len(target)} targets"
    return True, f"bijection on {len(inputs)} derangement objects"


def _check_downline_per_cycle(n: int, seed: int) -> tuple[bool, str]:
    count = 0
    for s in bj.enumerate_negative_cdes(n):
        if statistics(s.perm).cyc != 1:
            continue
        count += 1
        m = bj.theta(s)
        closing = next(e for e in m.edges if mt.MVertex(1, 1) in e)
        bump = 1 if mt.edge_class(closing) == "downline" else 0
        if mt.match_stats(m).down != len(s.neg) + bump:
            return False, f"{s}: down={mt.match_stats(m).down}, neg={len(s.neg)}, bump={bump}"
    return True, f"{count} cyclic inputs satisfy the per-cycle form"


def _check_downline_global_report(n: int, seed: int) -> tuple[bool, str]:
    holds = fails = 0
    cyclic_fails = 0
    first_fail = None
    for s in bj.enumerate_negative_cdes(n):
        m = bj.gamma(s)
        partner = m.partner_map()[mt.MVertex(1, 1)]
        expected = len(s.neg) + (0 if partner.row == 1 else 1)
        if mt.match_stats(m).down == expected:
            holds += 1
        else:
            fails += 1
            if statistics(s.perm).cyc == 1:
                cyclic_fails += 1
            if first_fail is None:
                first_fail = str(s)
    total = holds + fails
    msg = f"row-of-partner form holds for {holds}/{total} signed permutations"
    if fails:
        msg += f"; {cyclic_fails} failing inputs are cyclic; first failure {first_fail}"
    else:
        msg += "; no failures"
    return True, msg


# ---------------------------------------------------------------------------
# Suite wiring.


@dataclass(frozen=True)
class Check:
    fn: Callable[[int, int], tuple[bool, str]]
    min_n: int
    cap: int
    informational: bool = False


CHECKS: dict[str, Check] = {
    "closed-form-all": Check(_check_closed_form, 2, 8),
    "closed-form-derangement": Check(partial(_check_closed_form, derangements=True), 2, 8),
    "recurrence-all": Check(_check_recurrence, 1, 8),
    "recurrence-derangement": Check(partial(_check_recurrence, derangements=True), 2, 8),
    "cdes-poly-all": Check(_check_cdes_poly, 1, 8),
    "cdes-poly-derangement": Check(partial(_check_cdes_poly, derangements=True), 1, 8),
    "sequence-cross-check": Check(_check_sequence_cross, 1, 12),
    "poly-ring-axioms": Check(_check_poly_axioms, 1, 1),
    "psi-involution": Check(_check_psi_involution, 2, 8),
    "psi-fixed-weight": Check(_check_psi_fixed_weight, 2, 8),
    "varphi-involution": Check(_check_varphi_involution, 2, 8),
    "phi-preservation": Check(_check_phi_preservation, 1, 8),
    "count-callan": Check(_check_count_callan, 1, 7),
    "count-callan-no-vertical": Check(partial(_check_count_callan, derangements=True), 1, 7),
    "gamma-image": Check(_check_gamma_image, 1, 6),
    "theta-image": Check(_check_theta_image, 1, 6),
    "gamma-roundtrip": Check(_check_gamma_roundtrip, 1, 7),
    "theta-roundtrip": Check(_check_theta_roundtrip, 1, 7),
    "statistic-transport": Check(_check_transport, 1, 7),
    "derangement-restriction": Check(_check_derangement_restriction, 1, 6),
    "downline-per-cycle": Check(_check_downline_per_cycle, 1, 7),
    "downline-global-report": Check(_check_downline_global_report, 1, 7, informational=True),
}

for _id, _min in sp.IDENTITY_MIN_N.items():
    CHECKS[f"identity-{_id}"] = Check(_make_identity_check(_id), _min, 8)

SUITES: dict[str, tuple[str, ...]] = {
    "theorem-p": ("closed-form-all", "closed-form-derangement"),
    "lemmas": ("recurrence-all", "recurrence-derangement"),
    "theorem-b": ("cdes-poly-all", "cdes-poly-derangement", "sequence-cross-check"),
    "identities": tuple(f"identity-{i}" for i in sp.IDENTITY_IDS) + ("poly-ring-axioms",),
    "involutions": (
        "psi-involution",
        "psi-fixed-weight",
        "varphi-involution",
        "phi-preservation",
    ),
    "bijections": (
        "count-callan",
        "count-callan-no-vertical",
        "gamma-image",
        "theta-image",
        "gamma-roundtrip",
        "theta-roundtrip",
        "statistic-transport",
        "derangement-restriction",
        "downline-per-cycle",
        "downline-global-report",
    ),
}
SUITES["all"] = tuple(CHECKS)


def suite_cap(suite: str) -> int:
    return max(CHECKS[c].cap for c in SUITES[suite])


def _plan(suite: str, n_max: int | None) -> list[tuple[str, int]]:
    tasks: list[tuple[str, int]] = []
    for check_id in SUITES[suite]:
        check = CHECKS[check_id]
        hi = check.cap if n_max is None else min(n_max, check.cap)
        for n in range(check.min_n, hi + 1):
            tasks.append((check_id, n))
    return tasks


def _run_one(task: tuple[str, int, int]) -> tuple[str, int, bool, str]:
    check_id, n, seed = task
    passed, detail = CHECKS[check_id].fn(n, seed)
    return check_id, n, passed, detail


def run_verification(
    suite: str,
    n_max: int | None = None,
    jobs: int = 1,
    seed: int = DEFAULT_SEED,
) -> VerificationSummary:
    """Run one suite up to ``n_max`` (defaulting to every check's own cap).

    Raises ValueError for an unknown suite, an ``n_max`` beyond the
    suite's cap or a ``jobs`` below 1; sizes are never silently truncated
    below a check's documented cap.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite: {suite!r} (choose from {sorted(SUITES)})")
    cap = suite_cap(suite)
    if n_max is not None and n_max > cap:
        raise ValueError(f"suite {suite!r} is capped at n <= {cap}, got n_max={n_max}")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(cid, n, seed) for cid, n in _plan(suite, n_max)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]
    summary = VerificationSummary(
        suite=suite,
        n_lo=min((CHECKS[c].min_n for c in SUITES[suite]), default=1),
        n_hi=max((n for _, n, _ in tasks), default=0),
        checks_run=len(results),
    )
    for check_id, n, passed, detail in results:
        outcome = CheckOutcome(check_id, n, passed, detail)
        if CHECKS[check_id].informational:
            summary.notes.append(outcome)
        elif not passed:
            summary.failures.append(outcome)
    return summary
