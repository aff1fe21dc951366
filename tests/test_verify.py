import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycledescent import statpolys as sp
from cycledescent.caps import CAPS, CHECK_LAYOUT, verify_cap
from cycledescent.verify import (
    _FOLDS,
    _INFORMATIONAL,
    _WALKS,
    DEFAULT_SEED,
    SUITES,
    _plan,
    _tasks,
    run_verification,
    suite_cap,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_suites_cover_all_checks():
    named = {c for s, ids in SUITES.items() if s != "all" for c in ids}
    assert named == set(_FOLDS)
    assert set(SUITES["all"]) == set(_FOLDS)


def test_checks_are_built_from_the_layout_of_caps():
    from cycledescent import caps

    # verify keeps a fold per check id; the sizes and walks of a run are the
    # layout's
    assert set(_FOLDS) == set(CHECK_LAYOUT)
    assert tuple(CHECK_LAYOUT) == SUITES["all"]
    plan = _plan("all", None)
    for check_id, (min_n, _, walks) in CHECK_LAYOUT.items():
        sizes = [n for c, n in plan if c == check_id]
        assert sizes == list(range(min_n, verify_cap(check_id) + 1)), check_id
        assert {walk for walk, n in _tasks([(check_id, 1)])} == set(walks), check_id
    assert _INFORMATIONAL == ("downline-global-report",)
    # verify re-exports the layout's suites, suite caps and seed
    assert (SUITES, suite_cap, DEFAULT_SEED) == (caps.SUITES, caps.suite_cap, caps.DEFAULT_SEED)


def test_suite_names_and_the_seed_are_written_once():
    texts = "".join(path.read_text() for path in sorted((SRC / "cycledescent").glob("*.py")))
    for literal in [f'"{s}"' for s in SUITES if s != "all"] + [str(DEFAULT_SEED)]:
        assert texts.count(literal) == 1, literal


def test_suite_caps():
    assert suite_cap("theorem-p") == 9
    assert suite_cap("lemmas") == 9
    assert suite_cap("theorem-b") == 12
    assert suite_cap("identities") == 9
    assert suite_cap("involutions") == 8
    assert suite_cap("bijections") == 7


# Lowers every entry of the one table of caps that verify reads, each to
# its own value, after verify is loaded, reloads the CLI (whose help text is
# built at import), and prints the largest size each check is then planned
# at, the suite caps and what the walks keep, then the verify help (on one
# line, as the test sets COLUMNS=1000).
ONE_TABLE_SCRIPT = """
import importlib, json
from cycledescent import cli, verify
from cycledescent.caps import CAPS

CAPS.update({"brute force": 8, "involution tables": 7, "cdes distribution": 6,
             "signed enumeration": 5, "image sets": 4, "sequence cross-check": 11})
importlib.reload(cli)
print(json.dumps({
    # a check's sizes are planned upward, so its last is its largest
    "caps": {c: n for c, n in verify._plan("all", None)},
    "suite caps": {s: verify.suite_cap(s) for s in verify.SUITES},
    "image sets": [sorted(verify._walk_signed(5).images),
                   sorted(verify._walk_callan(5).targets)],
}))
cli.main(["verify", "--help"])
"""


def test_every_check_cap_is_read_from_the_one_table():
    proc = subprocess.run(
        [sys.executable, "-c", ONE_TABLE_SCRIPT],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="1000"),
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    first, help_text = proc.stdout.split("\n", 1)
    out = json.loads(first)
    tally = SUITES["theorem-p"] + SUITES["lemmas"] + SUITES["identities"]
    images = ("gamma-image", "theta-image", "derangement-restriction")
    expected = {
        **{c: 8 for c in tally},
        "poly-ring-axioms": 1,  # random draws, no enumeration
        "cdes-poly-all": 6,
        "cdes-poly-derangement": 6,
        "sequence-cross-check": 11,
        **{c: 7 for c in SUITES["involutions"]},
        **{c: 4 if c in images else 5 for c in SUITES["bijections"]},
    }
    assert out["caps"] == expected
    assert out["suite caps"] == {
        "theorem-p": 8, "lemmas": 8, "theorem-b": 11, "identities": 8,
        "involutions": 7, "bijections": 5, "all": 11,
    }
    assert out["image sets"] == [[], []]
    assert (
        "closed forms, recurrences and signed identities run to n <= 8, the cdes"
        " distribution to n <= 6, the involution laws to n <= 7, matching"
        " enumeration and round trips to n <= 5, image-set equality to n <= 4)"
    ) in help_text


def test_a_lowered_cap_holds_from_the_next_run(monkeypatch):
    # no check keeps a copy of its cap: a run reads CAPS as it stands
    monkeypatch.setitem(CAPS, "signed enumeration", 6)
    monkeypatch.setitem(CAPS, "involution tables", 6)
    bijections = run_verification("bijections")
    assert (bijections.n_hi, bijections.checks_run, bijections.exit_code) == (6, 60, 0)
    involutions = run_verification("involutions")
    assert (involutions.n_hi, involutions.checks_run, involutions.exit_code) == (6, 21, 0)


def test_run_small_suites_pass():
    for suite in ("theorem-p", "lemmas", "identities", "involutions"):
        summary = run_verification(suite, n_max=4)
        assert summary.exit_code == 0, (suite, summary.failures)
        assert summary.checks_run > 0
        assert summary.failures == []


def test_bijections_suite_small():
    summary = run_verification("bijections", n_max=4)
    assert summary.exit_code == 0
    assert summary.notes, "the downline report should be emitted"
    assert all(n.check_id == "downline-global-report" for n in summary.notes)


def test_every_check_returns_none_or_its_note_at_small_sizes():
    # every check folds off walk records built once per size, as
    # run_verification builds them
    records = {}
    for check_id, (min_n, _, walks) in CHECK_LAYOUT.items():
        for n in range(min_n, min(verify_cap(check_id), 4) + 1):
            for walk in walks:
                if (walk, n) not in records:
                    records[walk, n] = _WALKS[walk](n)
            out = _FOLDS[check_id](n, DEFAULT_SEED, *(records[walk, n] for walk in walks))
            if check_id == "downline-global-report":
                assert isinstance(out, str), (check_id, n, out)
            else:
                assert out is None, (check_id, n, out)


# the checks that read the tally of S_n: every brute-force sum of statpolys
TALLY_READERS = {
    *SUITES["theorem-p"],
    *SUITES["lemmas"],
    "cdes-poly-all",
    "cdes-poly-derangement",
    *(f"identity-{i}" for i in sp.IDENTITY_IDS),
}


def test_tasks_are_walks_only():
    tasks = _tasks(_plan("all", None))
    sizes = {"tally": range(1, 10), "perms": range(1, 9), "signed": range(1, 8),
             "callan": range(1, 8)}
    assert set(tasks) == {(walk, n) for walk, ns in sizes.items() for n in ns}
    assert len(tasks) == 31
    # a tally reader of size n reads ("tally", n), which the cache of
    # statpolys builds once per process
    assert {c for c, (_, _, walks) in CHECK_LAYOUT.items() if walks == ("tally",)} == TALLY_READERS
    assert _WALKS["tally"] is sp._tally
    assert all(tasks[walk, n] == (_WALKS[walk], n) for walk, n in tasks)


def test_unknown_suite_and_bad_nmax():
    with pytest.raises(ValueError):
        run_verification("nope")
    with pytest.raises(ValueError):
        run_verification("lemmas", n_max=10)
    with pytest.raises(ValueError):
        run_verification("lemmas", n_max=0)


def test_parallel_matches_serial():
    serial = run_verification("theorem-b", n_max=5)
    parallel = run_verification("theorem-b", n_max=5, jobs=3)
    assert serial.exit_code == parallel.exit_code == 0
    assert serial.checks_run == parallel.checks_run


def test_summary_json_shape():
    summary = run_verification("theorem-p", n_max=3)
    data = summary.to_json_dict()
    assert data["suite"] == "theorem-p"
    assert data["n_range"] == [2, 3]
    assert isinstance(data["failures"], list)
    assert isinstance(data["notes"], list)


def test_failures_set_exit_code(monkeypatch):
    monkeypatch.setitem(_FOLDS, "cdes-poly-all", lambda n, seed, tally: "forced failure")
    summary = run_verification("theorem-b", n_max=2)
    assert summary.exit_code == 1
    assert any(f.detail == "forced failure" for f in summary.failures)
    data = summary.to_json_dict()
    assert data["failures"][0]["witness"] == "forced failure"


def test_every_check_gets_the_seed_of_its_run(monkeypatch):
    monkeypatch.setitem(_FOLDS, "cdes-poly-all", lambda n, seed, tally: f"seed {seed}")
    summary = run_verification("theorem-b", n_max=2, seed=7)
    assert [(f.check_id, f.n, f.detail) for f in summary.failures] == [
        ("cdes-poly-all", 1, "seed 7"),
        ("cdes-poly-all", 2, "seed 7"),
    ]


def test_jobs_beyond_the_task_count_start_one_worker_per_task(monkeypatch):
    # a fake pool that runs each call inline: no worker process starts
    from concurrent.futures import Future

    from cycledescent import verify

    workers, submits = [], []

    class InlinePool:
        def __init__(self, max_workers):
            if max_workers < 1:  # as the real executor refuses it
                raise ValueError("max_workers must be greater than 0")
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submits.append(fn)
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(verify, "ProcessPoolExecutor", InlinePool)
    serial = run_verification("theorem-p", n_max=3)
    pooled = run_verification("theorem-p", n_max=3, jobs=10_000)
    assert workers == [len(submits)]
    assert pooled.to_json_dict() == serial.to_json_dict()
    # an empty plan (no theorem-p check starts below n = 2) runs without a pool
    serial = run_verification("theorem-p", n_max=1)
    pooled = run_verification("theorem-p", n_max=1, jobs=2)
    assert workers == [len(submits)]
    assert pooled.to_json_dict() == serial.to_json_dict()
