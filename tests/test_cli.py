import io
import json
import os
import runpy
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycledescent import cli
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


@pytest.mark.parametrize("suite", ["theorem-p", "lemmas", "identities", "involutions"])
def test_verify_jobs_parity(capsys, suite):
    code1, out1, _ = run(capsys, "verify", suite, "--n-max", "3", "--json")
    code2, out2, _ = run(capsys, "verify", suite, "--n-max", "3", "--json", "--jobs", "2")
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
    code, out, err = run(capsys, "seq", "b21", "--n-max", "0")
    assert code == 2 and out == ""
    assert err == "error: --n-max must be >= 1, got 0\n"


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


@pytest.mark.parametrize("what", ["callan", "ncdp"])
def test_enum_refuses_an_unknown_filter(capsys, what):
    code, out, err = run(capsys, "enum", what, "--n", "3", "--filter", "bogus")
    assert code == 2 and out == ""
    assert err == "error: unknown filter: 'bogus'\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("what", ["callan", "ncdp"])
def test_enum_refuses_a_negative_size(capsys, what, fmt):
    code, out, err = run(capsys, "enum", what, "--n", "-3", "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: negative size\n"
    # the filter is checked before the size
    code, out, err = run(capsys, "enum", what, "--n", "-3", "--filter", "bogus")
    assert code == 2 and out == ""
    assert err == "error: unknown filter: 'bogus'\n"


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


@pytest.mark.parametrize("perm", ["(1 3 4 2)(5 7)(6)", "1", "2 1", "5 4 3 2 1 6", "(1)(2)(3)"])
def test_stats_reads_all_it_prints_off_one_walk(capsys, monkeypatch, perm):
    from cycledescent import perms

    # the output the accessors give, each walking the word once
    p = perms.parse_permutation(perm)
    s = perms.statistics(p)
    expected = (
        f"one-line: {p}\n"
        f"cycles:   {perms.cycle_string(p)}\n"
        f"n={p.n} exc={s.exc} fix={s.fix} cyc={s.cyc} cdes={s.cdes}\n"
        f"cdes set: {sorted(s.cdes_set)}\n"
        f"position of 1: {s.inv1}\n"
    )
    walks = []
    walk_word = perms._walk_word
    monkeypatch.setattr(perms, "_walk_word", lambda word: walks.append(word) or walk_word(word))
    assert run(capsys, "stats", "--perm", perm) == (0, expected, "")
    assert walks == [p.word]


def test_verify_reports_failures_in_text(capsys, monkeypatch):
    from cycledescent import verify as verify_mod

    monkeypatch.setitem(
        verify_mod._FOLDS, "cdes-poly-all", lambda n, seed, tally: "forced failure"
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


def test_module_runs_as_a_script(capsys, monkeypatch):
    # ``python -m cycledescent.cli``, in process: the exit status is main's
    monkeypatch.setattr(sys, "argv", ["cycledescent", "seq", "b21", "--n-max", "3"])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("cycledescent.cli", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "1 2 7\n"


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["stats", "--perm", "3 1 2"],
        ["map", "gamma", "--input", "(1+ 2+)"],
        ["seq", "b21", "--n-max", "3"],
    ):
        assert run(capsys, *argv)[0] == 0
    assert built == []


def test_one_process_answers_after_refusals(capsys):
    stats = ("stats", "--perm", "(1 4 2)(3)")
    first = run(capsys, *stats)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["map", "gamma"])  # no --input: argparse refuses
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "map", "gamma", "--input", "(1- 2+)")[0] == 2
    assert run(capsys, *stats) == first


HELP_GOLDEN = Path(__file__).parent / "golden" / "help.txt"
HELP_COMMANDS = ([], ["verify"], ["table"], ["seq"], ["enum"], ["map"], ["diagram"], ["stats"])


def test_help_matches_golden(capsys, monkeypatch):
    # argparse wraps help to the terminal width it reads from COLUMNS; the
    # verify help prints the size caps
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for command in HELP_COMMANDS:
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--help"])
        assert exit_info.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        parts.append(f"$ cycledescent {' '.join([*command, '--help'])}\n{out}")
    assert "\n".join(parts) == HELP_GOLDEN.read_text()


# ---------------------------------------------------------------------------
# A request that names a command is parsed by that command's parser alone.
# Its exit status, stdout and stderr must be those of the two-level parse,
# where the top-level parser hands everything after the command name to the
# command's parser and refuses, in its own words, what that parser leaves.


def two_level(argv):
    """``main`` with every request parsed by the top-level parser."""
    with mock.patch.object(cli, "_parse", cli._PARSER.parse_args):
        return main(argv)


def outcome(call, argv, stdin=""):
    """The exit status, stdout and stderr of ``call(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.object(
        sys, "stdin", io.StringIO(stdin)
    ):
        try:
            code = call(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


COMMANDS = ("verify", "table", "seq", "enum", "map", "diagram", "stats")
EQUIVALENT_ARGVS = [
    [],
    [""],
    ["--help"],
    ["-h", "map"],
    ["--he"],
    ["bogus", "--perm", "1"],
    ["-x", "stats", "--perm", "1"],
    ["--", "stats", "--perm", "1"],
    ["stats"],
    ["stats", "--perm", "3 1 2"],
    ["stats", "--perm=3 1 2"],
    ["stats", "--pe", "(1 3)(2)"],
    ["stats", "--perm", "-1"],
    ["stats", "--perm", ""],
    ["stats", "--perm", "3 1 2", "stray"],
    ["stats", "--perm", "3 1 2", "--bogus=1", "x"],
    ["stats", "--perm", "1", "--", "x"],
    ["stats", "--perm", "3 1 2", "--help"],
    ["stats", "-h", "bogus"],
    ["stats", "--he"],
    ["map", "gamma", "--inp", "(1+ 2+)"],
    ["map", "gamma", "--input", "(1+ 2+)", "--format=json"],
    ["map", "gamma", "--input", "-"],
    ["map", "theta-inv", "--input", "-h"],
    ["map", "gamma", "--", "--input", "(1+ 2+)"],
    ["map", "--", "gamma", "--input", "(1+ 2+)"],
    ["map", "", "--input", "(1+ 2+)"],
    ["map", "gamma", "--input", "(1+ 2+)", "--format", "svg", "--format", "text"],
    ["diagram", "--input=(1+ 2+)", "--format", "bogus"],
    ["diagram", "--input", "(1+ 2+)", "--format", "svg"],
    ["seq", "b21", "--n-max", "5"],
    ["seq", "b21", "--n-max", "-3"],
    ["seq", "b21", "--n-max"],
    ["seq", "--n", "4", "b20"],
    ["table", "psi", "--n", "3", "--i", "2"],
    ["table", "varphi", "--n=3", "--i"],
    ["enum", "callan", "--n", "3", "--format", "json"],
    ["enum", "ncdp", "--n", "3", "--filter", "bogus"],
    ["verify", "theorem-p", "--n-max", "3"],
    ["verify", "--json", "lemmas", "--n-max", "3", "--jobs", "1"],
    ["verify", "theorem-p", "--n-max", "99"],
    ["verify", "--n-max=x", "all"],
]


@pytest.mark.parametrize("argv", EQUIVALENT_ARGVS, ids=repr)
def test_one_pass_answers_as_the_two_level_parse(argv):
    want = outcome(two_level, argv, stdin="(1+ 2+)")
    assert outcome(main, argv, stdin="(1+ 2+)") == want


def echo(args):
    """A handler that prints what the parse gave it."""
    print(sorted(vars(args).items()))
    return 0


# a request each command answers, and the command's own options, their
# values and the choices of its positionals
GOOD = {
    "verify": ["theorem-p", "--n-max", "3"],
    "table": ["psi", "--n", "3"],
    "seq": ["b21", "--n-max", "4"],
    "enum": ["callan", "--n", "3"],
    "map": ["gamma", "--input", "(1+ 2+)"],
    "diagram": ["--input", "(1+ 2+)"],
    "stats": ["--perm", "3 1 2"],
}
OWN_TOKENS = {
    "verify": ["all", "--n-max=3", "--json", "--jobs", "1", "--seed"],
    "table": ["varphi", "--n=3", "--i", "2"],
    "seq": ["mn", "--n-max=4"],
    "enum": ["ncdp", "--filter", "all", "--format", "json"],
    "map": ["theta-inv", "--input=(1+ 2+)", "--format", "svg"],
    "diagram": ["--input=-", "--format", "text"],
    "stats": ["--perm=2 1", "2 1"],
}
# prefixes, values that start with '-', '--', help, empty strings, strays
NOISE = ["--inp", "--n-m", "--fo", "--pe", "--j", "--=", "--bogus", "-x", "-1", "--", "-"]
NOISE += ["-h", "--help", "--he", "", "stray", "gamma", "b21", *COMMANDS]


def argvs():
    """A good request with some of its words dropped and some of its
    command's tokens and noise put in; or an argv whose first word names
    no command."""
    heads = st.sampled_from([*COMMANDS, *COMMANDS, "", "-h", "--", "bogus"])
    noise = st.one_of(st.sampled_from(NOISE), st.text(alphabet="-=ab1 ", max_size=4))

    def edit(head):
        good = [head, *GOOD.get(head, ())]
        token = st.one_of(st.sampled_from(OWN_TOKENS.get(head, NOISE)), noise)
        kept = st.sampled_from([True, True, True, False])
        keep = st.lists(kept, min_size=len(good) - 1, max_size=len(good) - 1)
        puts = st.lists(st.tuples(st.integers(1, len(good) + 3), token), max_size=4)

        def build(keep, puts):
            argv = [head, *(w for w, k in zip(good[1:], keep) if k)]
            for at, w in puts:
                argv.insert(at, w)
            return argv

        return st.builds(build, keep, puts)

    return heads.flatmap(edit)


@given(argv=argvs())
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
def test_one_pass_parses_as_the_two_level_parse(argv):
    # every handler answers from its namespace (and stdin) alone, so equal
    # namespaces give equal answers; the echo prints them and costs nothing
    with mock.patch.dict(cli._HANDLERS, dict.fromkeys(COMMANDS, echo)):
        assert outcome(main, argv) == outcome(two_level, argv)


@pytest.mark.parametrize("argv", [["stats", "--perm", "2 1"], ["stats", "--perm", "2 1", "x"]])
def test_a_request_naming_a_command_skips_the_top_level_pass(monkeypatch, argv):
    want = outcome(two_level, argv)

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(cli._PARSER, "parse_known_args", refuse)
    assert outcome(main, argv) == want
