"""
Acceptance battery: every exact claim the library makes, checked by
exhaustive enumeration at its stated size cap and time budget.  Each test
prints one pass/fail line (run ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import resource
import time
from pathlib import Path

from cycledescent import cli
from cycledescent.bijections import enumerate_negative_cdes, gamma, gamma_inv, theta, theta_inv
from cycledescent.involutions import psi, psi_fixed_set, varphi, varphi_fixed_point
from cycledescent.matchings import MVertex, edge_class, enumerate_matchings, match_stats
from cycledescent.perms import enumerate_permutations, statistics
from cycledescent.reftables import emit_table
from cycledescent.statpolys import (
    alternating_closed_form,
    b20_count,
    cdes_distribution_brute,
    cdes_distribution_rec,
    identity_check,
    klazar_count,
    recurrence_table,
    statistic_poly,
)
from cycledescent.verify import run_verification

GOLDEN = Path(__file__).parent / "golden"


def _finish(name: str, budget: float, start: float, failures: list):
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"{status} {name} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"{name} took {elapsed:.1f}s (budget {budget}s)"


def test_criterion_01_alternating_closed_form_all():
    start = time.perf_counter()
    failures = []
    for n in range(2, 9):
        for i in range(1, n + 1):
            got = statistic_poly(n, i).substitute(y=-1, q=1)
            want = alternating_closed_form(n, i)
            if got != want:
                failures.append((n, i, str(got), str(want)))
    _finish("criterion-1 alternating closed form (all)", 10, start, failures)


def test_criterion_02_alternating_closed_form_derangements():
    start = time.perf_counter()
    failures = []
    for n in range(2, 9):
        for i in range(2, n + 1):
            got = statistic_poly(n, i, derangements=True).substitute(y=-1)
            want = alternating_closed_form(n, i, derangements=True)
            if got != want:
                failures.append((n, i, str(got), str(want)))
    _finish("criterion-2 alternating closed form (derangements)", 10, start, failures)


def test_criterion_03_recurrences_match_brute_force():
    start = time.perf_counter()
    failures = []
    for n in range(1, 9):
        table = recurrence_table(n)
        for i in range(1, n + 1):
            if table.entries[i] != statistic_poly(n, i).substitute(q=1, t=1):
                failures.append(("all", n, i))
    for n in range(2, 9):
        table = recurrence_table(n, derangements=True)
        for i in range(1, n + 1):
            brute = statistic_poly(n, i, derangements=True).substitute(t=1)
            if table.entries[i] != brute:
                failures.append(("derangements", n, i))
    _finish("criterion-3 deletion recurrences vs enumeration", 30, start, failures)


def test_criterion_04_cdes_distribution_recurrences():
    start = time.perf_counter()
    failures = []
    for n in range(1, 9):
        if cdes_distribution_rec(n) != cdes_distribution_brute(n):
            failures.append(("all", n))
        if cdes_distribution_rec(n, derangements=True) != cdes_distribution_brute(
            n, derangements=True
        ):
            failures.append(("derangements", n))
    if [klazar_count(n) for n in range(1, 8)] != [1, 2, 7, 35, 226, 1787, 16717]:
        failures.append("klazar sequence")
    if [b20_count(n) for n in range(1, 5)] != [0, 1, 3, 16]:
        failures.append("derangement sequence")
    for n in range(1, 8):
        if klazar_count(n) != cdes_distribution_rec(n).substitute(y=2).as_int():
            failures.append(("cross", n))
    for n in range(1, 5):
        expected = cdes_distribution_rec(n, derangements=True).substitute(y=2).as_int()
        if b20_count(n) != expected:
            failures.append(("cross-derangement", n))
    _finish("criterion-4 cdes distribution recurrences", 30, start, failures)


def test_criterion_05_count_equalities():
    start = time.perf_counter()
    failures = []
    for n in range(1, 8):
        signed = sum(1 for _ in enumerate_negative_cdes(n))
        callan = sum(1 for _ in enumerate_matchings(n, "callan"))
        if not signed == callan == klazar_count(n):
            failures.append(("all", n, signed, callan, klazar_count(n)))
        signed_d = sum(1 for _ in enumerate_negative_cdes(n, "derangement"))
        callan_nv = sum(1 for _ in enumerate_matchings(n, "callan_no_vertical"))
        if not signed_d == callan_nv == b20_count(n):
            failures.append(("derangement", n, signed_d, callan_nv, b20_count(n)))
    _finish("criterion-5 count equalities", 60, start, failures)


def test_criterion_06_bijections():
    start = time.perf_counter()
    failures = []
    for n in range(1, 8):
        image = set()
        der_image = set()
        for s in enumerate_negative_cdes(n):
            m = gamma(s)
            image.add(m)
            if gamma_inv(m) != s:
                failures.append(("gamma round trip", n, str(s)))
            ms, ps = match_stats(m), statistics(s.perm)
            if ms.com != ps.cyc or ms.ver != ps.fix:
                failures.append(("transport", n, str(s)))
            if ps.fix == 0:
                der_image.add(m)
            if ps.cyc == 1:
                tm = theta(s)
                if theta_inv(tm) != s:
                    failures.append(("theta round trip", n, str(s)))
                closing = next(e for e in tm.edges if MVertex(1, 1) in e)
                bump = 1 if edge_class(closing) == "downline" else 0
                if match_stats(tm).down != len(s.neg) + bump:
                    failures.append(("downline per-cycle", n, str(s)))
        callan = set(enumerate_matchings(n, "callan"))
        for m in callan:
            if gamma(gamma_inv(m)) != m:
                failures.append(("reverse round trip", n))
                break
        if n <= 6:
            if image != callan:
                failures.append(("gamma image", n, len(image), len(callan)))
            connected = {m for m in callan if match_stats(m).com == 1}
            theta_image = {
                theta(s)
                for s in enumerate_negative_cdes(n)
                if statistics(s.perm).cyc == 1
            }
            if theta_image != connected:
                failures.append(("theta image", n))
            no_vertical = set(enumerate_matchings(n, "callan_no_vertical"))
            if der_image != no_vertical:
                failures.append(("derangement restriction", n))
    # the global downline statement is reported, never asserted
    report = run_verification("bijections", n_max=3)
    if not any(r.check_id == "downline-global-report" for r in report.notes):
        failures.append("missing downline report")
    _finish("criterion-6 matching bijections", 60, start, failures)


def test_criterion_07_signed_cycle_identities():
    start = time.perf_counter()
    failures = []
    for ident in ("brenti", "kz-total", "kz-refined"):
        for n in range(1, 9):
            report = identity_check(ident, n)
            if not report.passed:
                failures.append((ident, n, report.witness))
    _finish("criterion-7 signed cycle-count identities", 10, start, failures)


def test_criterion_08_involutions():
    start = time.perf_counter()
    failures = []
    for n in range(2, 9):
        for i in range(1, n + 1):
            expected_fixed = psi_fixed_set(n, i)
            want = 0 if 1 < i < n else 2 ** (n - 2)
            if len(expected_fixed) != want:
                failures.append(("fixed size", n, i))
            seen_fixed = set()
            for p in enumerate_permutations("one_at_i", n, i):
                out = psi(n, i, p)
                if psi(n, i, out.image).image != p:
                    failures.append(("psi involution", n, i, str(p)))
                elif statistics(out.image).exc != statistics(p).exc:
                    failures.append(("psi excedance", n, i, str(p)))
                elif out.case_tag == "fixed":
                    seen_fixed.add(p)
                elif abs(out.delta_cdes) != 1:
                    failures.append(("psi parity", n, i, str(p)))
                if out.delta_cdes != statistics(out.image).cdes - statistics(p).cdes:
                    failures.append(("psi stated delta", n, i, str(p)))
            if seen_fixed != set(expected_fixed):
                failures.append(("psi fixed set", n, i))
        for i in range(2, n + 1):
            fixed_seen = set()
            for p in enumerate_permutations("derangements_one_at_i", n, i):
                out = varphi(n, i, p)
                if varphi(n, i, out.image).image != p:
                    failures.append(("varphi involution", n, i, str(p)))
                elif statistics(out.image).exc != statistics(p).exc:
                    failures.append(("varphi excedance", n, i, str(p)))
                elif out.case_tag == "fixed":
                    fixed_seen.add(p)
                elif abs(out.delta_cdes) != 1:
                    failures.append(("varphi parity", n, i, str(p)))
                if out.delta_cdes != statistics(out.image).cdes - statistics(p).cdes:
                    failures.append(("varphi stated delta", n, i, str(p)))
            if fixed_seen != {varphi_fixed_point(n, i)}:
                failures.append(("varphi fixed set", n, i))
    _finish("criterion-8 sign-reversing involutions", 60, start, failures)


def test_criterion_09_golden_tables():
    start = time.perf_counter()
    failures = []
    cases = {
        "table1_psi_4_1.txt": ("psi", 4, 1),
        "table2_psi_4_2.txt": ("psi", 4, 2),
        "table3_psi_4_3.txt": ("psi", 4, 3),
        "table4_psi_4_4.txt": ("psi", 4, 4),
        "table5_varphi_4.txt": ("varphi", 4, None),
    }
    for fname, (kind, n, i) in cases.items():
        if emit_table(kind, n, i) != (GOLDEN / fname).read_bytes().decode():
            failures.append(fname)
    table5 = (GOLDEN / "table5_varphi_4.txt").read_text()
    if table5.count("misprint") != 2:
        failures.append("table 5 anomaly annotations")
    _finish("criterion-9 golden tables byte-exact", 10, start, failures)


def test_criterion_10_full_verification_run(capsys):
    # the serial `verify all --json` run, byte for byte against its golden
    start = time.perf_counter()
    code = cli.main(["verify", "all", "--json"])
    out = capsys.readouterr().out
    summary = json.loads(out)
    failures = [(f["check"], f["n"], f["witness"]) for f in summary["failures"]]
    if code != 0:
        failures.append(f"exit code {code}")
    if out != (GOLDEN / "verify_all.json").read_bytes().decode():
        failures.append("output differs from golden/verify_all.json")
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    if peak_gb >= 10:
        failures.append(f"peak memory {peak_gb:.1f} GiB")
    print(f"verify all: {summary['checks_run']} checks, peak rss {peak_gb:.2f} GiB")
    _finish("criterion-10 full verification sweep", 300, start, failures)
