"""Which calls load the process pool, the dataclass machinery and the
verification modules, each asked of a fresh interpreter.

Every CLI call pays the import of what it loads.  Only a verification run
that starts more than one worker needs ``concurrent.futures.process`` and
``multiprocessing``; importing the package, ``stats``, ``map``,
``diagram``, a serial ``verify`` and a plan too small for a second worker
must leave both out of ``sys.modules``.  No call needs ``dataclasses``, or
the ``inspect`` and ``ast`` it loads: the value classes are written by
hand, and every call must leave all three out too.  Only ``verify``,
``table`` and ``seq`` need ``verify``, ``reftables``, ``statpolys`` or
``poly``: the package import and the one-shot commands ``stats``, ``map``
and ``diagram`` must leave all four out.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
POOL = ("concurrent.futures.process", "multiprocessing")
DATACLASSES = ("dataclasses", "inspect", "ast")
DEFERRED = tuple(f"cycledescent.{m}" for m in ("verify", "statpolys", "reftables", "poly"))
WATCHED = POOL + DATACLASSES + DEFERRED

# runs one call with its output swallowed, then prints its status and the
# watched modules it left loaded
PROBE = """
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    {call}
print(status, *[m for m in {watched!r} if m in sys.modules])
"""


@lru_cache(maxsize=None)
def loaded_modules(call):
    """(status, watched modules loaded) after ``call`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(call=call, watched=WATCHED)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    status, *modules = proc.stdout.split()
    return int(status), modules


def cli(*argv):
    return f"from cycledescent.cli import main; status = main({list(argv)!r})"


CALLS = pytest.mark.parametrize(
    "call",
    [
        "import cycledescent, cycledescent.cli; status = 0",
        cli("stats", "--perm", "(1 3 4 2)(5 7)(6)"),
        cli("map", "gamma", "--input", "(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)"),
        cli("diagram", "--input", "(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)"),
        cli("verify", "theorem-p", "--n-max", "3"),
        # no theorem-p check starts below n = 2: an empty plan, so no worker
        cli("verify", "theorem-p", "--n-max", "1", "--jobs", "2"),
    ],
    ids=["import", "stats", "map-gamma", "diagram", "verify-serial", "verify-empty-plan"],
)


@CALLS
def test_call_leaves_the_pool_unloaded(call):
    status, modules = loaded_modules(call)
    assert (status, [m for m in modules if m in POOL]) == (0, [])


@CALLS
def test_call_leaves_dataclasses_unloaded(call):
    status, modules = loaded_modules(call)
    assert (status, [m for m in modules if m in DATACLASSES]) == (0, [])


def test_pooled_run_loads_the_pool():
    call = (
        "from cycledescent.verify import run_verification; "
        "status = run_verification('theorem-p', n_max=3, jobs=2).exit_code"
    )
    status, modules = loaded_modules(call)
    assert (status, [m for m in modules if m not in DEFERRED]) == (0, list(POOL))


@pytest.mark.parametrize(
    "call",
    [
        "import cycledescent, cycledescent.cli; status = 0",
        cli("stats", "--perm", "(1 3 4 2)(5 7)(6)"),
        cli("map", "gamma", "--input", "(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)"),
        cli("map", "gamma-inv", "--input", '{"support": [1], "edges": [[[1, 0], [1, 1]]]}'),
        cli("diagram", "--input", "(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)"),
    ],
    ids=["import", "stats", "map-gamma", "map-gamma-inv", "diagram"],
)
def test_one_shot_call_loads_no_verification_module(call):
    status, modules = loaded_modules(call)
    assert (status, [m for m in modules if m in DEFERRED]) == (0, [])


def deferred(*names):
    return [f"cycledescent.{m}" for m in names]


@pytest.mark.parametrize(
    "call, needs",
    [
        (cli("verify", "theorem-p", "--n-max", "3"), deferred("verify", "statpolys", "poly")),
        (cli("table", "psi", "--n", "3", "--i", "1"), deferred("reftables", "poly")),
        (cli("seq", "b21", "--n-max", "3"), deferred("statpolys", "poly")),
        (
            "import cycledescent; cycledescent.run_verification; status = 0",
            deferred("verify", "statpolys", "poly"),
        ),
        ("import cycledescent; cycledescent.ONE; status = 0", deferred("poly")),
    ],
    ids=["verify", "table", "seq", "package-run_verification", "package-ONE"],
)
def test_call_loads_the_verification_modules_it_runs(call, needs):
    status, modules = loaded_modules(call)
    assert (status, [m for m in modules if m in DEFERRED]) == (0, needs)


# every name the package exports, its module first: the object layer, then
# the names that load their module on first access
EXPORTS = {
    "bijections": (
        "BlockSeq", "SignedPermutation", "blocks", "enumerate_negative_cdes", "format_signed",
        "gamma", "gamma_inv", "is_negative_cdes", "parse_signed", "theta", "theta_inv",
    ),
    "involutions": (
        "InvolutionOutcome", "last_top_descent", "m_index", "phi_map", "psi",
        "psi_fixed_set", "varphi", "varphi_fixed_point",
    ),
    "matchings": (
        "MatchStats", "MVertex", "PerfectMatching", "components", "edge_class",
        "enumerate_matchings", "is_callan", "match_stats", "mk_matching",
    ),
    "perms": (
        "CycleDecomposition", "Permutation", "StatRecord", "cycle_string",
        "enumerate_permutations", "hat", "inverse", "parse_permutation", "red",
        "standard_cycles", "statistics",
    ),
    "poly": ("ONE", "Q", "T", "X", "Y", "ZERO", "MultiPoly"),
    "statpolys": (
        "IDENTITY_IDS", "IdentityReport", "PolyTable", "alternating_closed_form", "b20_count",
        "cdes_distribution_brute", "cdes_distribution_rec", "identity_check", "klazar_count",
        "recurrence_table", "statistic_poly",
    ),
    "verify": ("VerificationSummary", "run_verification"),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_package_exports_each_name_of_its_module(module):
    names = EXPORTS[module]
    call = (
        f"import cycledescent\n"
        f"    from cycledescent import {', '.join(names)}\n"
        f"    from cycledescent import {module} as source\n"
        f"    status = int(any(globals()[x] is not getattr(source, x) for x in {names!r}))"
    )
    assert loaded_modules(call)[0] == 0


@pytest.mark.parametrize("name, module", [("ONE", "poly"), ("reftables", "reftables")])
def test_package_binds_a_deferred_name_on_first_access(monkeypatch, name, module):
    import importlib

    import cycledescent

    source = importlib.import_module(f"cycledescent.{module}")
    expected = source if name == module else getattr(source, name)
    monkeypatch.delitem(vars(cycledescent), name, raising=False)
    assert getattr(cycledescent, name) is expected
    assert vars(cycledescent)[name] is expected


def test_package_refuses_unknown_names():
    import cycledescent

    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        cycledescent.nothing
    assert {"run_verification", "ONE", "verify", "reftables"} <= set(dir(cycledescent))
