import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycledescent.cli import main
from cycledescent.bijections import parse_signed, signed_to_json_dict
from cycledescent.matchings import matching_to_json_dict
from cycledescent.bijections import gamma


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "theorem-b", "--n-max", "4")
    assert code == 0
    assert "0 failures" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "--n-max", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"suite", "n_range", "checks_run", "failures", "notes"}
    assert data["suite"] == "lemmas"
    assert data["failures"] == []
    assert data["checks_run"] == 5  # sizes 1..3 plus derangement sizes 2..3


def test_verify_jobs_parity(capsys):
    code1, out1, _ = run(capsys, "verify", "identities", "--n-max", "3", "--json")
    code2, out2, _ = run(
        capsys, "verify", "identities", "--n-max", "3", "--json", "--jobs", "2"
    )
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_verify_refuses_above_cap(capsys):
    code, _, err = run(capsys, "verify", "bijections", "--n-max", "8")
    assert code == 2
    assert "capped" in err


def test_table_command_matches_library(capsys):
    code, out, _ = run(capsys, "table", "psi", "--n", "4", "--i", "1")
    assert code == 0
    from cycledescent.reftables import emit_table

    assert out == emit_table("psi", 4, 1)
    code, out, _ = run(capsys, "table", "varphi", "--n", "4")
    assert code == 0
    assert "misprint" in out


@pytest.mark.parametrize("i", ["1", "2", "4", "9"])
def test_table_varphi_refuses_an_index(capsys, i):
    # varphi tables cover every i in 2..n at once
    code, out, err = run(capsys, "table", "varphi", "--n", "4", "--i", i)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_seq_commands(capsys):
    code, out, _ = run(capsys, "seq", "b21", "--n-max", "5")
    assert code == 0 and out.strip() == "1 2 7 35 226"
    code, out, _ = run(capsys, "seq", "b20", "--n-max", "4")
    assert code == 0 and out.strip() == "0 1 3 16"
    code, out, _ = run(capsys, "seq", "mn", "--n-max", "3")
    assert code == 0 and out.strip() == "1 2 7"
    code, _, err = run(capsys, "seq", "mn", "--n-max", "8")
    assert code == 2 and "capped" in err


def test_seq_agreement_on_overlap(capsys):
    _, rec, _ = run(capsys, "seq", "b21", "--n-max", "6")
    _, enum, _ = run(capsys, "seq", "mn", "--n-max", "6")
    assert rec == enum


def test_enum_counts_and_json(capsys):
    code, out, _ = run(capsys, "enum", "callan", "--n", "3", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    first = json.loads(lines[0])
    assert set(first) == {"support", "edges"}
    code, out, _ = run(capsys, "enum", "ncdp", "--n", "3", "--filter", "derangement")
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    code, _, err = run(capsys, "enum", "matchings", "--n", "9")
    assert code == 2 and "capped" in err


def test_map_round_trip_through_cli(capsys):
    notation = "(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)"
    code, out, _ = run(capsys, "map", "gamma", "--input", notation, "--format", "json")
    assert code == 0
    matching_json = out.strip()
    expected = matching_to_json_dict(gamma(parse_signed(notation)))
    assert json.loads(matching_json) == expected
    code, out, _ = run(capsys, "map", "gamma-inv", "--input", matching_json)
    assert code == 0
    assert out.strip() == notation


def test_map_accepts_signed_json(capsys):
    payload = json.dumps(signed_to_json_dict(parse_signed("(1+ 3- 2+)")))
    code, out, _ = run(capsys, "map", "theta", "--input", payload, "--format", "text")
    assert code == 0
    assert "row 1" in out


def test_map_svg_only_for_matchings(capsys):
    code, out, _ = run(capsys, "map", "theta", "--input", "(1+ 2+)", "--format", "svg")
    assert code == 0 and out.startswith("<svg")
    code, _, err = run(capsys, "map", "theta-inv", "--input", "not json", "--format", "svg")
    assert code == 2 and "invalid matching JSON" in err


def test_diagram_command(capsys):
    notation = "(1+ 6- 4- 3+ 2+ 8- 7- 5+)"
    code, out, _ = run(capsys, "diagram", "--input", notation, "--format", "svg")
    assert code == 0 and out.startswith("<svg")
    code, out, _ = run(capsys, "diagram", "--input", notation)
    assert code == 0 and out.startswith("row 1:")


def test_diagram_renders_non_callan_with_warning(capsys):
    bad = json.dumps(
        {"support": [1, 2], "edges": [[[1, 0], [2, 1]], [[1, 1], [2, 0]]]}
    )
    code, out, _ = run(capsys, "diagram", "--input", bad)
    assert code == 0
    assert "warning" in out


def test_stats_command(capsys):
    code, out, _ = run(capsys, "stats", "--perm", "(1 3 4 2)(5 7)(6)")
    assert code == 0
    assert "one-line: 3 1 4 2 7 6 5" in out
    assert "exc=3 fix=1 cyc=3 cdes=1" in out
    assert "cdes set: [4]" in out
    assert "position of 1: 2" in out
    code, _, err = run(capsys, "stats", "--perm", "1 1")
    assert code == 2


def test_verify_reports_failures_in_text(capsys, monkeypatch):
    from cycledescent import verify as verify_mod

    monkeypatch.setitem(
        verify_mod.CHECKS,
        "cdes-poly-all",
        verify_mod.Check(lambda n, seed: (False, "forced failure"), 1, 2),
    )
    code, out, _ = run(capsys, "verify", "theorem-b", "--n-max", "2")
    assert code == 1
    assert "FAIL cdes-poly-all" in out


def test_map_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(1+ 2+)"))
    code, out, _ = run(capsys, "map", "theta", "--input", "-", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["support"] == [1, 2]


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        (["enum", "callan", "--n", "7"], 1),  # like `| head -1`
        (["verify", "theorem-p", "--n-max", "3", "--json"], 0),
    ],
)
def test_closed_stdout_exits_141_without_traceback(argv, lines_read):
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycledescent.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()  # the reader goes away
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_closed_stdout_in_process_points_stdout_at_devnull(monkeypatch, tmp_path):
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert main(["seq", "b21", "--n-max", "3"]) == 141
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
