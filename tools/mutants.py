"""Run hand-written mutants of ``cycledescent`` against the tier-1 tests.

Each mutant is one edit: a text of a file under ``src/`` and the text that
replaces it.  For each, the tool copies ``src/`` and ``tests/`` to a fresh
temporary directory, never touching the checkout, applies the edit there
and runs tier-1 with ``-x`` in the copy.  A mutant is killed when some test
fails and survives when all pass.  It prints one line per mutant and the
survivors at the end; the exit status is 1 when a mutant survives.

    python tools/mutants.py

Standard library and pytest only; it takes no options.  Not run by CI: a
killed mutant takes a few seconds and a survivor a whole tier-1 run.
``tests/test_mutants.py`` checks that each old text occurs exactly once in
its file, so the list cannot go stale unnoticed; the copies run without
that test, which every mutant would fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STALENESS_TEST = "tests/test_mutants.py"
VERIFY, STATPOLYS = "src/cycledescent/verify.py", "src/cycledescent/statpolys.py"

# (name, file, old text, new text), each old text found once in its file
MUTANTS = [
    (
        "closed-form skips i = n", VERIFY,
        "    for i in range(2 if derangements else 1, n + 1):\n"
        "        brute = sp._statistic_poly(tally, i, derangements).substitute(y=-1, q=1)",
        "    for i in range(2 if derangements else 1, n):\n"
        "        brute = sp._statistic_poly(tally, i, derangements).substitute(y=-1, q=1)",
    ),
    (
        "closed-form reads no empty sum", VERIFY,
        "    if derangements and not sp._statistic_poly(tally, 1, derangements=True).is_zero():",
        "    if False:",
    ),
    (
        "recurrence drops the derangement flag", VERIFY,
        "        brute = sp._statistic_poly(tally, i, derangements).substitute(q=1, t=1)",
        "        brute = sp._statistic_poly(tally, i).substitute(q=1, t=1)",
    ),
    (
        "cdes-poly compares the recurrence with itself", VERIFY,
        "    brute = sp._cdes_distribution_brute(tally, derangements)",
        "    brute = sp.cdes_distribution_rec(n, derangements)",
    ),
    (
        "identity fold checks brenti for every id", VERIFY,
        "    report = sp._identity_check(tally, identity_id, n)",
        '    report = sp._identity_check(tally, "brenti", n)',
    ),
    (
        "statistic core ignores derangements", STATPOLYS,
        '    family = "derangements_one_at_i" if derangements else "one_at_i"',
        '    family = "one_at_i"',
    ),
    (
        "run folds with the default seed", VERIFY,
        "        detail = check.fn(n, seed, *(results[walk, n] for walk in check.walks))",
        "        detail = check.fn(n, DEFAULT_SEED, *(results[walk, n] for walk in check.walks))",
    ),
    (
        "run folds all but the last check", VERIFY,
        "    for check_id, n in plan:\n        check = CHECKS[check_id]\n        detail",
        "    for check_id, n in plan[:-1]:\n        check = CHECKS[check_id]\n        detail",
    ),
    (
        "perm walk runs psi from n = 3", VERIFY,
        "        if n >= 2:\n            out = image, tag, delta = psi(",
        "        if n >= 3:\n            out = image, tag, delta = psi(",
    ),
    (
        "perm walk takes every psi result as phi's", VERIFY,
        "            if out is None or out[1] not in _PHI_PAIRS:",
        "            if out is None:",
    ),
    (
        "signed walk counts one derangement per word", VERIFY,
        "        if not fix:\n            w.derangements += len(negs)",
        "        if not fix:\n            w.derangements += 1",
    ),
    (
        "signed walk never measures a theta image", VERIFY,
        "                if t != partner:\n                    down = stats_of(t)[2]",
        "                if False:\n                    down = stats_of(t)[2]",
    ),
    (
        "callan walk skips the last column", VERIFY,
        "        vertical_free = all(partner[k] != k + 1 for k in range(2, 2 * n + 2, 2))",
        "        vertical_free = all(partner[k] != k + 1 for k in range(2, 2 * n, 2))",
    ),
    (
        "callan walk runs no reverse trip", VERIFY,
        "        if gamma(cycles, neg, n) != partner and w.reverse_trip is None:",
        "        if False:",
    ),
]


def run_mutant(file: str, old: str, new: str) -> tuple[bool, float]:
    """Whether tier-1 kills the mutant, and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        target = copy / file
        target.write_text(target.read_text().replace(old, new, 1))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        command = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--ignore", STALENESS_TEST,
        ]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=copy, env=env, capture_output=True)
        return proc.returncode != 0, time.perf_counter() - start


def main() -> int:
    survivors = []
    for name, file, old, new in MUTANTS:
        text = (ROOT / file).read_text()
        if text.count(old) != 1:
            print(f"stale: {name}: its old text occurs {text.count(old)} times in {file}")
            return 2
        line = text[: text.index(old)].count("\n") + 1
        killed, seconds = run_mutant(file, old, new)
        print(f"{'killed' if killed else 'SURVIVED'}  {seconds:5.1f} s  {file}:{line}  {name}")
        if not killed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed")
    for name in survivors:
        print(f"survived: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
