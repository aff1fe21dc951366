"""CLI outputs diffed byte for byte with their goldens.

The matching goldens cover the three output formats (text, JSON, SVG), the
two enumeration filters that list matchings, two diagrams on sparse
supports with every edge class (SVG, and SVG and text of one with uplines
and three-digit indices), the text diagram of a signed input, and the JSON
and SVG of gamma on a 50-cycle.  The others pin the text report of a
verify suite with notes, the text and JSON of a signed enumeration, the
JSON of both inverse maps, and the refusal of SVG output for a signed
result.  Each command runs twice: through ``main`` in
this process, and as ``python -m cycledescent.cli`` in a fresh one, with
the same arguments and the same file on stdin.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycledescent.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
SIGNED = "(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)"
# one 50-cycle, every other cycle descent negative
SIGNED_50 = (
    "(1+ 25+ 50+ 22+ 47- 19+ 44+ 16+ 41- 13+ 38+ 10+ 35- 7+ 32+ 4+ 29- 26- 23+"
    " 48+ 20+ 45- 17+ 42+ 14+ 39- 11+ 36+ 8+ 33- 5+ 30+ 2+ 27+ 24+ 49- 21+ 46+"
    " 18+ 43- 15+ 40+ 12+ 37- 9+ 34+ 6+ 31- 3+ 28+)"
)

# golden file -> (arguments, golden file fed on stdin or None): the one list
# of golden commands.  A golden ending in .err is the error line of a
# refusal.
CASES = {
    "enum_matchings_4.jsonl": (["enum", "matchings", "--n", "4", "--format", "json"], None),
    "enum_callan_4.txt": (["enum", "callan", "--n", "4"], None),
    "map_gamma.txt": (["map", "gamma", "--input", SIGNED], None),
    "map_gamma.json": (["map", "gamma", "--input", SIGNED, "--format", "json"], None),
    "map_gamma.svg": (["map", "gamma", "--input", SIGNED, "--format", "svg"], None),
    "diagram_sparse.svg": (
        ["diagram", "--input", "-", "--format", "svg"], "diagram_sparse_input.json"
    ),
    "diagram_signed.txt": (
        ["diagram", "--input", "(1+ 6- 4- 3+ 2+ 8- 7- 5+)", "--format", "text"], None
    ),
    "diagram_upline.svg": (
        ["diagram", "--input", "-", "--format", "svg"], "diagram_upline_input.json"
    ),
    "diagram_upline.txt": (
        ["diagram", "--input", "-", "--format", "text"], "diagram_upline_input.json"
    ),
    "map_gamma_50.json": (["map", "gamma", "--input", SIGNED_50, "--format", "json"], None),
    "map_gamma_50.svg": (["map", "gamma", "--input", SIGNED_50, "--format", "svg"], None),
    "verify_bijections_3.txt": (["verify", "bijections", "--n-max", "3"], None),
    "enum_ncdp_3.jsonl": (["enum", "ncdp", "--n", "3", "--format", "json"], None),
    "enum_ncdp_3.txt": (["enum", "ncdp", "--n", "3"], None),
    "map_gamma_inv.json": (
        ["map", "gamma-inv", "--input", "-", "--format", "json"], "map_gamma.json"
    ),
    "map_theta_inv.json": (
        ["map", "theta-inv", "--input", "-", "--format", "json"], "map_theta_inv_input.json"
    ),
    "map_gamma_inv_svg.err": (
        ["map", "gamma-inv", "--input", "-", "--format", "svg"], "map_gamma.json"
    ),
}
MATCHING = (
    "enum_matchings_4.jsonl",
    "enum_callan_4.txt",
    "map_gamma.txt",
    "map_gamma.json",
    "map_gamma.svg",
    "diagram_sparse.svg",
    "diagram_signed.txt",
    "diagram_upline.svg",
    "diagram_upline.txt",
    "map_gamma_50.json",
    "map_gamma_50.svg",
)
REFUSAL = "map_gamma_inv_svg.err"
OTHER = tuple(f for f in CASES if f not in MATCHING and f != REFUSAL)


def compare(fname, code, out, err):
    """Check a run of a case: exit 0 and the golden output, or for a refusal
    exit 2, no output and the golden error line."""
    golden = (GOLDEN / fname).read_bytes()
    if fname.endswith(".err"):
        assert (code, out, err) == (2, b"", golden)
    else:
        assert (code, out) == (0, golden)


def run_in_process(fname, capsys, monkeypatch):
    argv, stdin = CASES[fname]
    if stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO((GOLDEN / stdin).read_text()))
    code = main(argv)
    out, err = capsys.readouterr()
    compare(fname, code, out.encode(), err.encode())


@pytest.mark.parametrize("fname", sorted(MATCHING))
def test_matching_output_matches_golden(fname, capsys, monkeypatch):
    run_in_process(fname, capsys, monkeypatch)


@pytest.mark.parametrize("fname", sorted(OTHER))
def test_cli_output_matches_golden(fname, capsys, monkeypatch):
    run_in_process(fname, capsys, monkeypatch)


def test_svg_refusal_for_a_signed_result_matches_golden(capsys, monkeypatch):
    run_in_process(REFUSAL, capsys, monkeypatch)


@pytest.mark.parametrize("fname", sorted(CASES))
def test_command_line_output_matches_golden(fname):
    argv, stdin = CASES[fname]
    proc = subprocess.run(
        [sys.executable, "-m", "cycledescent.cli", *argv],
        input=(GOLDEN / stdin).read_bytes() if stdin else b"",
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    compare(fname, proc.returncode, proc.stdout, proc.stderr)
