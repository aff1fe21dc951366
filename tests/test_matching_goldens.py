"""CLI outputs diffed byte for byte with their goldens.

The matching goldens cover the three output formats (text, JSON, SVG), the
two enumeration filters that list matchings, a diagram on a sparse support
with every edge class and the text diagram of a signed input.  The others
pin the text report of a verify suite with notes, the text and JSON of a
signed enumeration, the JSON of both inverse maps, and the refusal of SVG
output for a signed result.  CI runs the same
commands and diffs the same files.
"""

from pathlib import Path

import pytest

from cycledescent.cli import main

GOLDEN = Path(__file__).parent / "golden"
SIGNED = "(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)"
CYCLIC = "(1+ 6- 4- 3+ 2+ 8- 7- 5+)"
SPARSE = (GOLDEN / "diagram_sparse_input.json").read_text()
GAMMA_IMAGE = (GOLDEN / "map_gamma.json").read_text()
THETA_IMAGE = (GOLDEN / "map_theta_inv_input.json").read_text()

CASES = {
    "enum_matchings_4.jsonl": ["enum", "matchings", "--n", "4", "--format", "json"],
    "enum_callan_4.txt": ["enum", "callan", "--n", "4"],
    "map_gamma.txt": ["map", "gamma", "--input", SIGNED],
    "map_gamma.json": ["map", "gamma", "--input", SIGNED, "--format", "json"],
    "map_gamma.svg": ["map", "gamma", "--input", SIGNED, "--format", "svg"],
    "diagram_sparse.svg": ["diagram", "--input", SPARSE, "--format", "svg"],
    "diagram_signed.txt": ["diagram", "--input", CYCLIC, "--format", "text"],
}

OTHER_CASES = {
    "verify_bijections_3.txt": ["verify", "bijections", "--n-max", "3"],
    "enum_ncdp_3.jsonl": ["enum", "ncdp", "--n", "3", "--format", "json"],
    "enum_ncdp_3.txt": ["enum", "ncdp", "--n", "3"],
    "map_gamma_inv.json": ["map", "gamma-inv", "--input", GAMMA_IMAGE, "--format", "json"],
    "map_theta_inv.json": ["map", "theta-inv", "--input", THETA_IMAGE, "--format", "json"],
}


@pytest.mark.parametrize("fname", sorted(CASES))
def test_matching_output_matches_golden(fname, capsys):
    assert main(CASES[fname]) == 0
    assert capsys.readouterr().out == (GOLDEN / fname).read_bytes().decode()


@pytest.mark.parametrize("fname", sorted(OTHER_CASES))
def test_cli_output_matches_golden(fname, capsys):
    assert main(OTHER_CASES[fname]) == 0
    assert capsys.readouterr().out == (GOLDEN / fname).read_bytes().decode()


def test_svg_refusal_for_a_signed_result_matches_golden(capsys):
    assert main(["map", "gamma-inv", "--input", GAMMA_IMAGE, "--format", "svg"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (GOLDEN / "map_gamma_inv_svg.err").read_bytes().decode()
