import pytest

from cycledescent.verify import (
    CHECKS,
    SUITES,
    run_verification,
    suite_cap,
)


def test_suites_cover_all_checks():
    named = {c for s, ids in SUITES.items() if s != "all" for c in ids}
    assert named == set(CHECKS)
    assert set(SUITES["all"]) == set(CHECKS)


def test_suite_caps():
    assert suite_cap("theorem-p") == 8
    assert suite_cap("lemmas") == 8
    assert suite_cap("theorem-b") == 12
    assert suite_cap("identities") == 8
    assert suite_cap("involutions") == 8
    assert suite_cap("bijections") == 7


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


def test_unknown_suite_and_bad_nmax():
    with pytest.raises(ValueError):
        run_verification("nope")
    with pytest.raises(ValueError):
        run_verification("lemmas", n_max=9)
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
    from cycledescent.verify import Check

    monkeypatch.setitem(
        CHECKS, "cdes-poly-all", Check(lambda n, seed: (False, "forced failure"), 1, 2)
    )
    summary = run_verification("theorem-b", n_max=2)
    assert summary.exit_code == 1
    assert any(f.detail == "forced failure" for f in summary.failures)
    data = summary.to_json_dict()
    assert data["failures"][0]["witness"] == "forced failure"


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
    serial = run_verification("theorem-p", n_max=2)
    pooled = run_verification("theorem-p", n_max=2, jobs=10_000)
    assert workers == [len(submits)]
    assert pooled.to_json_dict() == serial.to_json_dict()
    # an empty plan (no theorem-p check starts below n = 2) runs without a pool
    serial = run_verification("theorem-p", n_max=1)
    pooled = run_verification("theorem-p", n_max=1, jobs=2)
    assert workers == [len(submits)]
    assert pooled.to_json_dict() == serial.to_json_dict()
