from pathlib import Path

import pytest

from cycledescent import perms, reftables
from cycledescent.involutions import last_top_descent, m_index, psi, varphi
from cycledescent.perms import (
    enumerate_permutations,
    hat,
    parse_permutation,
    statistics,
)
from cycledescent.reftables import _VARPHI_SEED, emit_table

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_FILES = {
    ("psi", 4, 1): "table1_psi_4_1.txt",
    ("psi", 4, 2): "table2_psi_4_2.txt",
    ("psi", 4, 3): "table3_psi_4_3.txt",
    ("psi", 4, 4): "table4_psi_4_4.txt",
    ("varphi", 4, None): "table5_varphi_4.txt",
}


@pytest.mark.parametrize("key,fname", sorted(GOLDEN_FILES.items(), key=str))
def test_tables_match_goldens_byte_exactly(key, fname):
    kind, n, i = key
    assert emit_table(kind, n, i) == (GOLDEN / fname).read_bytes().decode()


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_psi_golden_fields_recomputed(i):
    body = (GOLDEN / GOLDEN_FILES[("psi", 4, i)]).read_text()
    rows = [line for line in body.splitlines() if not line.startswith("#")]
    seen = set()
    for row in rows:
        cells = row.split("|")
        p = parse_permutation(cells[0])
        seen.add(p)
        s = statistics(p)
        weight = cells[1]
        sign = "-" if weight.startswith("-") else ""
        expo = {0: "1", 1: "x"}.get(s.exc, f"x^{s.exc}")
        assert weight == (sign + expo if s.cdes % 2 else expo)
        assert cells[2] == "".join(map(str, hat(p)))
        q = last_top_descent(p)
        assert cells[3] == ("" if q is None else str(q))
        if i >= 2:
            m = m_index(p)
            assert cells[4] == ("" if m is None else str(m))
        assert parse_permutation(cells[-1]) == psi(4, i, p).image
    assert seen == set(enumerate_permutations("one_at_i", 4, i))


def test_varphi_golden_fields_recomputed():
    body = (GOLDEN / GOLDEN_FILES[("varphi", 4, None)]).read_text()
    rows = [line for line in body.splitlines() if not line.startswith("#")]
    assert len(rows) == 9
    for row in rows:
        i_text, perm_text, image_text, tag = row.split("|")
        i = int(i_text)
        p = parse_permutation(perm_text)
        out = varphi(4, i, p)
        assert parse_permutation(image_text) == out.image
        assert (tag == "fixed") == (out.case_tag == "fixed")


def test_varphi_golden_documents_anomalies():
    body = (GOLDEN / GOLDEN_FILES[("varphi", 4, None)]).read_text()
    assert "misprint" in body
    assert "(1 2 4 3) -> (1 2 4 3)" in body
    assert "varphi_{4,3}" in body
    # the corrected row itself
    assert "3|(1 2 4 3)|(1 2 4 3)|fixed" in body


def test_emit_table_generic_sizes():
    body = emit_table("psi", 5, 3)
    rows = [line for line in body.splitlines() if not line.startswith("#")]
    assert len(rows) == 24  # (n-1)! domain rows
    for row in rows:
        cells = row.split("|")
        p = parse_permutation(cells[0])
        assert parse_permutation(cells[-1]) == psi(5, 3, p).image
    varphi_body = emit_table("varphi", 3)
    assert "2|(1 3 2)|(1 3 2)|fixed" in varphi_body


def test_emit_table_errors():
    with pytest.raises(ValueError):
        emit_table("psi", 4, None)
    with pytest.raises(ValueError):
        emit_table("psi", 4, 5)
    with pytest.raises(ValueError):
        emit_table("nope", 4, 1)
    with pytest.raises(ValueError, match="take no index"):
        emit_table("varphi", 4, 3)
    with pytest.raises(ValueError, match="out of range: n=1"):
        emit_table("varphi", 1)


@pytest.mark.parametrize("i", [2, 3, 4])
def test_varphi_seed_covers_its_domain(i):
    seeded = [parse_permutation(s) for s in _VARPHI_SEED[i]]
    domain = enumerate_permutations("derangements_one_at_i", 4, i)
    assert sorted(p.word for p in seeded) == sorted(p.word for p in domain)


# (kind, n, i) -> the column that prints each row's permutation
WALKED_TABLES = {("psi", 4, 2): 0, ("psi", 6, 3): 0, ("varphi", 4, None): 1, ("varphi", 6, None): 1}


@pytest.mark.parametrize("kind,n,i", list(WALKED_TABLES))
def test_tables_walk_each_row_once(kind, n, i, monkeypatch):
    """One walk of a row's word gives every cell of the row but the image,
    which takes one walk of its own to print its cycles."""
    rows, images, real = [], [], perms._walk_word

    def walk(into):
        return lambda word: (into.append(word), real(word))[1]

    monkeypatch.setattr(reftables, "_walk_word", walk(rows))
    monkeypatch.setattr(perms, "_walk_word", walk(images))
    table = emit_table(kind, n, i)
    walks = rows[:], len(images)
    column = WALKED_TABLES[kind, n, i]
    printed = [
        parse_permutation(line.split("|")[column]).word
        for line in table.splitlines()
        if not line.startswith("#")
    ]
    assert walks == (printed, len(printed))
