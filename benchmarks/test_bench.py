"""Tests of the benchmark itself (standard library only).

    python3 -m unittest discover -s benchmarks -p 'test_*.py'

They need no benchmark run: the metric names come from the functions that
build the metrics, fed fake results, and from a replay at small sizes;
failures are provoked with fake summaries and fake requests.  Nothing under
``src`` changes.
"""

from __future__ import annotations

import gc
import io
import json
import os
import re
import tempfile
import time
import unittest
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import child
import gen
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
REFERENCE = json.loads(run.REFERENCE.read_text())


def fake_suite(name: str, **changes) -> dict:
    ref = REFERENCE["suites"][name]
    suite = {
        "suite": name,
        "span": [10.0, 11.0],
        "checks_run": ref["checks_run"],
        "exit_code": 0,
        "failures": [],
        "notes": [list(n) for n in ref["notes"]],
    }
    suite.update(changes)
    return suite


# host-speed samples of a host running exactly at the reference speed
SAMPLES = [[10.0 + k / 10, run.calib.REFERENCE_S] for k in range(31)]


def fake_run(suites: list[dict]) -> dict:
    return {"suites": suites, "span": [10.0, 12.0], "cpu_s": 3.0, "peak_rss_mb": 40.0, "samples": SAMPLES}


def fake_cli_run(failures: list[dict]) -> dict:
    return {
        "attempted": 10,
        "failures": failures,
        "passes": [{"span": [10.0, 10.1], "cpu_s": 0.05, "latencies_ms": [1.0 + k for k in range(5)]}] * 2,
        "peak_rss_mb": 30.0,
        "samples": SAMPLES,
    }


class RequestListTest(unittest.TestCase):
    def test_same_seed_same_list(self):
        self.assertEqual(
            gen.request_list_hash(gen.request_list(7)), gen.request_list_hash(gen.request_list(7))
        )
        self.assertNotEqual(
            gen.request_list_hash(gen.request_list(7)), gen.request_list_hash(gen.request_list(8))
        )

    def test_mix_is_fixed_and_one_in_ten_malformed(self):
        kinds = [r["kind"] for r in gen.request_list(3)]
        self.assertEqual(sorted(kinds), sorted(r["kind"] for r in gen.request_list(4)))
        self.assertAlmostEqual(kinds.count("reject") / len(kinds), 0.1, delta=0.03)

    def test_every_kind_at_every_size_equally_often(self):
        grid = Counter(
            (r["kind"], r["check"].get("n") or len(r["check"]["word"]))
            for r in gen.request_list(3)
            if r["kind"] != "reject"
        )
        kinds = {f"map-{k}" for k in ("gamma", "gamma-inv", "theta", "theta-inv")} | {"stats", "diagram"}
        sizes = gen.SMALL_N + gen.LARGE_N
        self.assertEqual(grid, {(k, n): gen.PER_SIZE for k in kinds for n in sizes})

    def test_own_checks_accept_a_right_stats_answer(self):
        word = [3, 1, 2, 5, 4]
        s = gen.own_stats(word)
        out = (
            f"one-line: 3 1 2 5 4\ncycles:   {gen.format_cycles(s['cycles'])}\n"
            f"n=5 exc={s['exc']} fix={s['fix']} cyc={s['cyc']} cdes={s['cdes']}\n"
            f"cdes set: {s['cdes_set']}\nposition of 1: {s['inv1']}\n"
        )
        req = {"kind": "stats", "expect": 0, "check": {"word": word}}
        self.assertIsNone(gen.check_response(req, 0, out, None))
        self.assertIsNotNone(gen.check_response(req, 0, out.replace("exc=", "exc=9"), None))


class MetricNamesTest(unittest.TestCase):
    def assert_declared(self, names, declared):
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(set(names), declared)

    def test_end_to_end_names(self):
        verify = {"setup_s": 0, **run.verify_metrics([fake_run([fake_suite("lemmas")])])}
        cli = {"setup_s": 0, **run.cli_metrics(fake_cli_run([]))}
        self.assert_declared(verify, END_TO_END)
        self.assert_declared(cli, END_TO_END)

    def test_per_layer_names(self):
        child.import_package()
        import replay

        sizes = (replay.PERM_N, replay.MATCH_N, replay.SMALL_REPEATS)
        replay.PERM_N, replay.MATCH_N, replay.SMALL_REPEATS = 5, 4, 1
        try:
            with tempfile.TemporaryDirectory() as tmp, run.calib.sampling(Path(tmp)) as samples:
                layer = replay.run(1, samples)
        finally:
            replay.PERM_N, replay.MATCH_N, replay.SMALL_REPEATS = sizes
        self.assertEqual(layer["problems"], [])
        perm = fake_run([fake_suite(s) for s, _, _ in run.PERM_SUITES])
        callan = fake_run([fake_suite("bijections")])
        names = {**layer["metrics"], **run.verify_layer_metrics(perm, callan)}
        self.assert_declared(names, PER_LAYER)


class HostSpeedTest(unittest.TestCase):
    def test_slow_host_phase_is_scaled_out(self):
        quiet = fake_run([fake_suite("lemmas")])
        slow = {**quiet, "samples": [[t, 2 * k] for t, k in SAMPLES]}
        self.assertAlmostEqual(
            run.verify_metrics([slow])["verdict_s"][0], run.verify_metrics([quiet])["verdict_s"][0] / 2
        )

    def test_unscaled_figures_skip_the_factor(self):
        slow = {**fake_run([fake_suite("lemmas")]), "samples": [[t, 2 * k] for t, k in SAMPLES]}
        self.assertEqual(run.verify_metrics([slow], run.unscaled)["verdict_s"][0], 2.0)

    def test_kernel_sets_off_no_collection(self):
        collections = []
        threshold = gc.get_threshold()
        gc.callbacks.append(lambda phase, info: collections.append(phase))
        gc.set_threshold(1)
        try:
            run.calib.kernel()
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.pop()
        self.assertEqual(collections, [])
        self.assertTrue(gc.isenabled())

    def test_sampling_runs_beside_the_work_and_in_forked_children(self):
        with tempfile.TemporaryDirectory() as tmp, run.calib.sampling(Path(tmp)) as samples:
            pid = os.fork()
            end = time.monotonic() + 3 * run.calib.INTERVAL_S
            while time.monotonic() < end:
                pass
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
            spilled = (Path(tmp) / f"calib-{os.getpid()}-{pid}.jsonl").read_text().splitlines()
            self.assertGreaterEqual(len(spilled), 2)
        self.assertGreaterEqual(len(samples), 4 + len(spilled))
        self.assertTrue(all(k > 0 for _, k in samples))


class FailureAccountingTest(unittest.TestCase):
    def failed(self, suite: dict) -> int:
        attempted, failed, _ = run.gate([fake_run([suite])], REFERENCE)
        self.assertEqual(attempted, 1)
        return failed

    def test_reference_suite_passes(self):
        self.assertEqual(self.failed(fake_suite("bijections")), 0)

    def test_wrong_verdict_fails(self):
        bad = fake_suite("lemmas", exit_code=1, failures=[["recurrence-all", 8, "i=2"]])
        self.assertEqual(self.failed(bad), 1)

    def test_changed_checks_run_fails(self):
        self.assertEqual(self.failed(fake_suite("theorem-b", checks_run=27)), 1)

    def test_shortened_enumeration_fails(self):
        notes = [list(n) for n in REFERENCE["suites"]["bijections"]["notes"]]
        notes[-1][2] = notes[-1][2].replace("/16717 ", "/16716 ")
        self.assertEqual(self.failed(fake_suite("bijections", notes=notes)), 1)

    def test_refused_suite_fails(self):
        self.assertEqual(self.failed({"suite": "involutions", "span": [10.0, 10.1], "error": "ValueError()"}), 1)

    def test_uncaught_exception_fails(self):
        def broken_main(argv):
            raise TypeError("boom")

        with redirect_stdout(io.StringIO()):
            code, stdout, error, _ = child.call_main(broken_main, ["stats", "--perm", "1"])
        req = {"kind": "stats", "expect": 0, "check": {"word": [1]}}
        why = gen.check_response(req, code, stdout, error)
        self.assertTrue(why.startswith("uncaught exception"))
        failed, unexpected = run.cli_failures(
            fake_cli_run([{"index": 0, "why": why, "malformed": None, "repeats": 2}]), REFERENCE
        )
        self.assertEqual(failed, 2)
        self.assertEqual(len(unexpected), 1)

    def test_known_defect_counts_but_is_expected(self):
        why = "uncaught exception: TypeError(\"'int' object is not subscriptable\")"
        failed, unexpected = run.cli_failures(
            fake_cli_run([{"index": 3, "why": why, "malformed": "flat-edge", "repeats": 5}]), REFERENCE
        )
        self.assertEqual((failed, unexpected), (5, []))

    def test_wrong_exit_code_and_wrong_output_fail(self):
        req = {"kind": "reject", "malformed": "upline", "expect": 2, "check": {}}
        self.assertIsNotNone(gen.check_response(req, 0, "(1+)\n", None))
        upline = json.dumps({"support": [1, 2], "edges": [[[1, 0], [2, 1]], [[1, 1], [2, 0]]]})
        fwd = {"kind": "map-gamma", "expect": 0, "check": {"n": 2, "word": [2, 1], "neg": []}}
        self.assertIsNotNone(gen.check_response(fwd, 0, upline, None))


if __name__ == "__main__":
    unittest.main()
