"""One fresh interpreter of a benchmark run.

Usage: python3 benchmarks/child.py <mode> '<json args>'

Modes: ``verify`` runs verification suites, ``cli`` runs the closed-loop
one-shot client, ``replay`` runs the traced per-layer replay.  Host-speed
samples (calib.py) are taken throughout.  The last line of standard output
is one JSON object for ``run.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import calib

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def import_package():
    """Import cycledescent from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cycledescent
    import cycledescent.cli

    if Path(cycledescent.__file__).resolve().parent != SRC / "cycledescent":
        raise RuntimeError(f"imported cycledescent from {cycledescent.__file__}, not {SRC}")
    return cycledescent


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Highest RSS of this process or of any reaped child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_suites(suites: list[list], seed: int) -> dict:
    """Call ``run_verification`` for each (suite, n_max, jobs), in order.

    Spans are ``time.monotonic()`` pairs, comparable with the host-speed
    samples taken in another process.
    """
    from cycledescent.verify import run_verification

    out = []
    cpu0 = cpu_seconds()
    start = time.monotonic()
    for suite, n_max, jobs in suites:
        t0 = time.monotonic()
        try:
            summary = run_verification(suite, n_max=n_max, jobs=jobs, seed=seed)
        except Exception as exc:  # a refused n_max is a failed suite, not a crash
            out.append({"suite": suite, "span": [t0, time.monotonic()], "error": repr(exc)})
            continue
        out.append(
            {
                "suite": suite,
                "span": [t0, time.monotonic()],
                "checks_run": summary.checks_run,
                "exit_code": summary.exit_code,
                "failures": [[f.check_id, f.n, f.detail] for f in summary.failures],
                "notes": [[r.check_id, r.n, r.detail] for r in summary.notes],
            }
        )
    return {
        "suites": out,
        "span": [start, time.monotonic()],
        "cpu_s": cpu_seconds() - cpu0,
        "peak_rss_mb": peak_rss_mb(),
    }


def call_main(main, argv: list[str]) -> tuple[object, str, str | None, float]:
    """Run ``main(argv)`` with captured output: (exit code, stdout, error, seconds).

    A host-speed sample due during the request waits until it has returned,
    so it never lands inside a latency.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    code: object = None
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught exception is a failed request
                error = repr(exc)
            elapsed = time.perf_counter() - t0
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    return code, out.getvalue(), error, elapsed


def run_cli(seed: int, seconds: float) -> dict:
    """Closed loop: one client sends the next request when the last returns."""
    import gen
    from cycledescent.cli import main

    requests = gen.request_list(seed)
    first: list[tuple] = []
    passes: list[dict] = []
    failures: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        latencies_ms = []
        cpu0 = time.process_time()
        start = time.monotonic()
        previous = ""
        for idx, req in enumerate(requests):
            code, stdout, error, elapsed = call_main(main, gen.argv_for(req, previous))
            previous = stdout
            latencies_ms.append(elapsed * 1e3)
            if not passes:
                first.append((code, stdout, error))
            elif (code, stdout, error) != first[idx]:
                failures.append({"index": idx, "why": "response differs from the first pass"})
        passes.append(
            {
                "span": [start, time.monotonic()],
                "cpu_s": time.process_time() - cpu0,
                "latencies_ms": latencies_ms,
            }
        )
    for idx, (req, (code, stdout, error)) in enumerate(zip(requests, first)):
        why = gen.check_response(req, code, stdout, error)
        if why:
            failures.append(
                {"index": idx, "why": why, "malformed": req.get("malformed"), "repeats": len(passes)}
            )
    return {
        "attempted": len(requests) * len(passes),
        "failures": failures,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
        "requests_hash": gen.request_list_hash(requests),
    }


def main() -> int:
    mode, args = sys.argv[1], json.loads(sys.argv[2])
    import_package()
    with calib.sampling(BENCH_DIR / "out") as samples:
        if mode == "verify":
            result = run_suites(args["suites"], args["seed"])
        elif mode == "cli":
            result = run_cli(args["seed"], args["seconds"])
        elif mode == "replay":
            import replay

            result = replay.run(args["seed"], samples)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    result["samples"] = samples
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
