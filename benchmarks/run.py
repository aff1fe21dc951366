"""Benchmark of the cycledescent package, run from the root of a checkout.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json and benchmarks/notes.json for why):

- ``perm-streams``: the five permutation-stream verify suites, serial, with
  each ``n_max`` pinned to its cap at the reference commit.
- ``callan-bijections``: the ``bijections`` verify suite at n=7 on 2 workers.
- ``cli-oneshot``: one closed-loop client calling ``cli.main(argv)`` on a
  seeded request list.

Every workload runs in fresh interpreters.  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it runs the traced per-layer
replay instead and prints the per-layer metrics.  Every output is checked:
verify suites against ``reference.json``, one-shot responses by ``gen``.
Timings are scaled by the host speed (calib.py); the unscaled figures are
printed beside them.  The last line of standard output is the result as one
JSON object; with ``--out FILE`` the result, the unscaled figures and the
host-speed factor are also appended to FILE for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics as st
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PAIRS = 16

PERM_SUITES = [["theorem-p", 8, 1], ["lemmas", 8, 1], ["theorem-b", 12, 1], ["identities", 8, 1], ["involutions", 8, 1]]
CALLAN_SUITES = [["bijections", 7, 2]]
VERIFY_WORKLOADS = {"perm-streams": PERM_SUITES, "callan-bijections": CALLAN_SUITES}
WORKLOADS = (*VERIFY_WORKLOADS, "cli-oneshot")

IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import {}; print(time.perf_counter() - t)"
)
# Set-up time is scaled by a reference import of standard-library modules,
# timed in its own fresh interpreter just before each package import: the
# same kind of work (finding, unmarshalling and running modules) on the same
# host a moment earlier, untouched by anything the package does.
REFERENCE_IMPORT = "email.parser, http.client, xml.dom.minidom, unittest, tarfile, calendar, difflib, configparser, uuid"
REFERENCE_IMPORT_S = 0.05  # the reference import on a quiet reference host


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left


def _spawn(args: list[str], **kw) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, text=True, start_new_session=True, **kw
    )


def _reap(proc: subprocess.Popen) -> None:
    """Kill what is left of the process group (pool workers included) and wait."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode is None:
        proc.communicate()


def run_child(args: list[str], deadline: Deadline) -> str:
    """Run a fresh interpreter in its own process group; return its stdout."""
    proc = _spawn(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} timed out") from None
    finally:
        _reap(proc)
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def child(mode: str, args: dict, deadline: Deadline) -> dict:
    out = run_child([str(BENCH_DIR / "child.py"), mode, json.dumps(args)], deadline)
    return json.loads(out.strip().splitlines()[-1])


def wall(span: list[float]) -> float:
    return span[1] - span[0]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def unscaled(samples: list, start: float, end: float) -> float:
    """A host-speed factor of 1, for the raw figures printed beside the scaled ones."""
    return 1.0


# ---------------------------------------------------------------------------
# Reference gate for verify suites.


def suite_problems(result: dict, reference: dict) -> list[str]:
    """Why one suite's verdict differs from the reference (empty if it agrees)."""
    name = result["suite"]
    ref = reference["suites"].get(name)
    if ref is None:
        return [f"{name}: no reference"]
    if "error" in result:
        return [f"{name}: {result['error']}"]
    problems = []
    if result["exit_code"] != 0 or result["failures"]:
        problems.append(f"{name}: exit {result['exit_code']}, failures {result['failures'][:3]}")
    if result["checks_run"] != ref["checks_run"]:
        problems.append(f"{name}: checks_run {result['checks_run']}, reference {ref['checks_run']}")
    # the downline-global-report notes embed how many objects each size visited
    if result["notes"] != ref["notes"]:
        problems.append(f"{name}: notes differ from the reference")
    return problems


# ---------------------------------------------------------------------------
# Workloads.


def measure_setup(deadline: Deadline) -> tuple[float, float]:
    """Median import time of ``cycledescent`` and its CLI in fresh interpreters.

    Returns (scaled, raw): each package import is scaled by REFERENCE_IMPORT_S
    over the reference import timed just before it.
    """
    package = ["-c", IMPORT_SNIPPET.format("cycledescent, cycledescent.cli"), str(ROOT / "src")]
    reference = ["-c", IMPORT_SNIPPET.format(REFERENCE_IMPORT), str(ROOT / "src")]
    for args in (reference, package):  # warm the bytecode and file caches
        run_child(args, deadline)
    scaled, raw = [], []
    for _ in range(SETUP_PAIRS):
        reference_s = float(run_child(reference, deadline))
        seconds = float(run_child(package, deadline))
        scaled.append(seconds * REFERENCE_IMPORT_S / reference_s)
        raw.append(seconds)
    return st.median(scaled), st.median(raw)


def gate(runs: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """(suites attempted, suites failed, problems) of verify runs."""
    attempted, failed, problems = 0, 0, []
    for run in runs:
        for suite in run["suites"]:
            found = suite_problems(suite, reference)
            attempted += 1
            failed += bool(found)
            problems += found
    return attempted, failed, problems


def verify_runs(suites: list, seed: int, seconds: float, deadline: Deadline) -> list[dict]:
    """Fresh-interpreter verdicts, repeated until ``seconds`` have passed."""
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        runs.append(child("verify", {"suites": suites, "seed": seed}, deadline))
    return runs


def suite_seconds(run: dict, speed=calib.speed_factor) -> dict[str, float]:
    """Wall time per suite, in reference-host seconds."""
    return {s["suite"]: wall(s["span"]) * speed(run["samples"], *s["span"]) for s in run["suites"]}


def verify_metrics(runs: list[dict], speed=calib.speed_factor) -> dict:
    factors = [speed(r["samples"], *r["span"]) for r in runs]
    verdict = st.median(wall(r["span"]) * f for r, f in zip(runs, factors))
    walls_ms = [t * 1e3 for r in runs for t in suite_seconds(r, speed).values()]
    return {
        "verdict_s": (verdict, "s"),
        "cpu_s": (st.median(r["cpu_s"] * f for r, f in zip(runs, factors)), "s"),
        "peak_rss_mb": (st.median(r["peak_rss_mb"] for r in runs), "MB"),
        "request_p50_ms": (percentile(walls_ms, 0.50), "ms"),
        "request_p99_ms": (percentile(walls_ms, 0.99), "ms"),
        "requests_per_s": (len(runs[0]["suites"]) / verdict, "1/s"),
    }


def cli_failures(run: dict, reference: dict) -> tuple[int, list[str]]:
    """(failed requests, failures not explained by a known defect at the reference)."""
    known = reference["known_cli_defects"]
    failed, unexpected = 0, []
    for f in run["failures"]:
        failed += f.get("repeats", 1)
        if f.get("malformed") not in known or not f["why"].startswith("uncaught exception"):
            unexpected.append(f"request {f['index']}: {f['why']}")
    return failed, unexpected


def cli_metrics(run: dict, speed=calib.speed_factor) -> dict:
    """Per-pass host-speed factors applied to every latency of the pass."""
    lat, pass_s, pass_cpu_s = [], [], []
    for p in run["passes"]:
        factor = speed(run["samples"], *p["span"])
        lat += [ms * factor for ms in p["latencies_ms"]]
        pass_s.append(sum(p["latencies_ms"]) * factor / 1e3)
        pass_cpu_s.append(p["cpu_s"] * factor)
    return {
        "verdict_s": (st.median(pass_s), "s"),
        "cpu_s": (st.median(pass_cpu_s), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "request_p50_ms": (percentile(lat, 0.50), "ms"),
        "request_p99_ms": (percentile(lat, 0.99), "ms"),
        "requests_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: Deadline, reference: dict) -> dict:
    setup_s, raw_setup_s = measure_setup(deadline)
    metrics, raw = {"setup_s": (setup_s, "s")}, {"setup_s": (raw_setup_s, "s")}
    if workload in VERIFY_WORKLOADS:
        runs = verify_runs(VERIFY_WORKLOADS[workload], seed, seconds, deadline)
        metrics.update(verify_metrics(runs))
        raw.update(verify_metrics(runs, unscaled))
        attempted, failed, unexpected = gate(runs, reference)
        speed = st.median(calib.speed_factor(r["samples"], *r["span"]) for r in runs)
    else:
        run = child("cli", {"seed": seed, "seconds": seconds}, deadline)
        metrics.update(cli_metrics(run))
        raw.update(cli_metrics(run, unscaled))
        attempted = run["attempted"]
        failed, unexpected = cli_failures(run, reference)
        speed = st.median(calib.speed_factor(run["samples"], *p["span"]) for p in run["passes"])
        print(f"cli-oneshot: request list {run['requests_hash'][:16]}, {len(run['passes'])} passes")
    return {
        "metrics": metrics,
        "raw_metrics": raw,
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "host_speed_factor": speed,
    }


def verify_layer_metrics(perm_run: dict, callan_run: dict, speed=calib.speed_factor) -> dict:
    metrics = {}
    for run in (perm_run, callan_run):
        metrics.update({f"verify.{name}.s": (t, "s") for name, t in suite_seconds(run, speed).items()})
    metrics["verify.checks_run"] = (
        sum(s.get("checks_run", 0) for s in perm_run["suites"] + callan_run["suites"]),
        "count",
    )
    workers = CALLAN_SUITES[0][2]
    metrics["verify.pool_efficiency"] = (callan_run["cpu_s"] / (workers * wall(callan_run["span"])), "ratio")
    return metrics


def traced(workload: str, seed: int, deadline: Deadline, reference: dict) -> dict:
    """Per-layer metrics: the traced replay plus per-suite verify times."""
    replay = child("replay", {"seed": seed}, deadline)
    runs = {
        name: child("verify", {"suites": suites, "seed": seed}, deadline)
        for name, suites in (("perm", PERM_SUITES), ("callan", CALLAN_SUITES))
    }
    metrics = {k: (v["value"], v["unit"]) for k, v in replay["metrics"].items()}
    factor = calib.REFERENCE_S / st.fmean(k for _, k in replay["samples"])
    metrics.update(verify_layer_metrics(runs["perm"], runs["callan"]))
    raw = {k: (v["value"], v["unit"]) for k, v in replay["raw_metrics"].items()}
    raw.update(verify_layer_metrics(runs["perm"], runs["callan"], unscaled))
    attempted, failed, problems = gate([runs["perm"], runs["callan"]], reference)
    problems += replay["problems"]
    attempted += replay["attempted"]
    failed += len(replay["problems"])
    trace_file = BENCH_DIR / "out" / f"trace-{workload}-seed{seed}.json"
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps({"host_speed_factor": factor, "records": replay["records"]}, indent=1))
    return {
        "metrics": metrics,
        "raw_metrics": raw,
        "attempted": attempted,
        "failed": failed,
        "unexpected": problems,
        "host_speed_factor": factor,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cycledescent" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = Deadline(BUDGET_S)
    try:
        reference = json.loads(REFERENCE.read_text())
        if args.trace:
            outcome = traced(args.workload, args.seed, deadline, reference)
        else:
            outcome = end_to_end(args.workload, args.seed, args.seconds, deadline, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in outcome["unexpected"]:
        print(f"FAIL {problem}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name} {value:.6g} {unit} (unscaled {outcome['raw_metrics'][name][0]:.6g})")
    print(f"failed_ratio {outcome['failed'] / outcome['attempted']:.6g} 1 ({outcome['failed']}/{outcome['attempted']})")
    print(f"host_speed_factor {outcome['host_speed_factor']:.4f} (the timings above but setup_s are scaled by it)")
    result = {
        "correct": not outcome["unexpected"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "host_speed_factor": outcome["host_speed_factor"],
            **result,
            "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["raw_metrics"].items()},
        }
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
