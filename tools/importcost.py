"""Where the import of ``cycledescent`` and its CLI spends its time.

Every CLI call, and the ``setup_s`` of every benchmark workload, pays
``import cycledescent, cycledescent.cli`` in a fresh interpreter.  That
import loads the object layer and the CLI only; ``verify``,
``statpolys``, ``reftables`` and ``poly`` load in the commands that run
them, so they are not in the figures below.  This
tool times that import as ``benchmarks/run.py`` does, alternating fresh
interpreters of the reference import and of the package import, and scales
each package import by run.py's reference time over the reference import
timed just before it.  The package is copied to a temporary directory with
no ``__pycache__`` and every child runs with ``PYTHONDONTWRITEBYTECODE=1``,
so each import compiles the package as in a fresh checkout.  A third
interpreter per round runs the import under ``-X importtime``.  Over
``PAIRS`` rounds it prints:

- the median raw and scaled import time;
- the median self time of each module the import loads, largest first,
  with the package's and the standard library's totals;
- the standard-library modules the import loads.

    python tools/importcost.py

Standard library only.  Not run by CI: the figures depend on the host.
"""

from __future__ import annotations

import os
import shutil
import statistics as st
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in benchmarks/
sys.path.insert(0, str(ROOT / "benchmarks"))
from run import IMPORT_SNIPPET, REFERENCE_IMPORT, REFERENCE_IMPORT_S  # noqa: E402

PACKAGE_IMPORT = "cycledescent, cycledescent.cli"
PAIRS = 9  # rounds of fresh interpreters


def child(args: list[str], src: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, *args, src], capture_output=True, text=True, env=env, timeout=60
    )
    if proc.returncode != 0:
        raise SystemExit(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def timed(modules: str, src: str) -> float:
    return float(child(["-c", IMPORT_SNIPPET.format(modules)], src).stdout)


def self_times(src: str) -> dict[str, int]:
    """Self time in microseconds of each module the package import loads,
    as ``-X importtime`` gives it; interpreter start-up is left out."""
    snippet = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        f"import {PACKAGE_IMPORT}; print(*(set(sys.modules) - before))"
    )
    proc = child(["-X", "importtime", "-c", snippet], src)
    loaded = set(proc.stdout.split())
    times = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            own, _, name = line[len("import time:"):].split("|")
            if name.strip() in loaded:
                times[name.strip()] = int(own)
    return times


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(
            ROOT / "src" / "cycledescent",
            Path(tmp) / "cycledescent",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        timed(REFERENCE_IMPORT, tmp)  # warm the file cache
        raw, scaled, reference, selves = [], [], [], []
        for _ in range(PAIRS):
            reference_s = timed(REFERENCE_IMPORT, tmp)
            seconds = timed(PACKAGE_IMPORT, tmp)
            reference.append(reference_s)
            raw.append(seconds)
            scaled.append(seconds * REFERENCE_IMPORT_S / reference_s)
            selves.append(self_times(tmp))
    print(
        f"import {PACKAGE_IMPORT}: median raw {st.median(raw):.4f} s,"
        f" scaled {st.median(scaled):.4f} s over {PAIRS} pairs"
        f" (reference import median {st.median(reference):.4f} s)"
    )
    names = {name for times in selves for name in times}
    median_us = {name: st.median(times.get(name, 0) for times in selves) for name in names}
    ours = {name for name in names if name.split(".")[0] == "cycledescent"}
    stdlib = sorted(names - ours)
    for label, group in (("package", ours), ("standard library", stdlib)):
        print(f"self time, {label}: {sum(median_us[name] for name in group) / 1000:.1f} ms")
    print("median self time per module (us):")
    for name in sorted(names, key=lambda name: -median_us[name]):
        print(f"{median_us[name]:>9.0f}  {name}")
    print(f"standard-library modules loaded ({len(stdlib)}): {', '.join(stdlib)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
