"""The list of hand-written mutants in ``tools/mutants.py`` stays current.

The tool itself runs tier-1 once per mutant and is not part of tier-1; this
test only checks that every edit it holds still finds its old text exactly
once, so that a change to the code cannot leave a mutant that applies
nowhere, or in two places.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize(
    "name, file, old, new", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS]
)
def test_each_mutant_finds_its_old_text_once(name, file, old, new):
    assert (ROOT / file).read_text().count(old) == 1
    assert old != new
