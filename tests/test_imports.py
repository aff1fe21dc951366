"""Which calls load the process pool and the dataclass machinery, each asked
of a fresh interpreter.

Every CLI call pays the import of what it loads.  Only a verification run
that starts more than one worker needs ``concurrent.futures.process`` and
``multiprocessing``; importing the package, ``stats``, ``map``, a serial
``verify`` and a plan too small for a second worker must leave both out of
``sys.modules``.  No call needs ``dataclasses``, or the ``inspect`` and
``ast`` it loads: the value classes are written by hand, and every call
must leave all three out too.
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
WATCHED = POOL + DATACLASSES

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
        cli("verify", "theorem-p", "--n-max", "3"),
        # no theorem-p check starts below n = 2: an empty plan, so no worker
        cli("verify", "theorem-p", "--n-max", "1", "--jobs", "2"),
    ],
    ids=["import", "stats", "map-gamma", "verify-serial", "verify-empty-plan"],
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
    assert loaded_modules(call) == (0, list(POOL))
