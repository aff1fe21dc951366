"""Every command that prints a matching, diffed byte for byte with its golden.

The goldens cover the three output formats (text, JSON, SVG), the two
enumeration filters that list matchings, and a diagram on a sparse support
with every edge class.  CI runs the same commands and diffs the same files.
"""

from pathlib import Path

import pytest

from cycledescent.cli import main

GOLDEN = Path(__file__).parent / "golden"
SIGNED = "(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)"
SPARSE = (GOLDEN / "diagram_sparse_input.json").read_text()

CASES = {
    "enum_matchings_4.jsonl": ["enum", "matchings", "--n", "4", "--format", "json"],
    "enum_callan_4.txt": ["enum", "callan", "--n", "4"],
    "map_gamma.txt": ["map", "gamma", "--input", SIGNED],
    "map_gamma.json": ["map", "gamma", "--input", SIGNED, "--format", "json"],
    "map_gamma.svg": ["map", "gamma", "--input", SIGNED, "--format", "svg"],
    "diagram_sparse.svg": ["diagram", "--input", SPARSE, "--format", "svg"],
}


@pytest.mark.parametrize("fname", sorted(CASES))
def test_matching_output_matches_golden(fname, capsys):
    assert main(CASES[fname]) == 0
    assert capsys.readouterr().out == (GOLDEN / fname).read_bytes().decode()
