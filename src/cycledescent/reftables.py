"""
Plain-text tables of the involutions at desk sizes.

Every field is recomputed from the live implementation; only the display
order of the bundled n = 4 tables is pinned, so the emitted files stay
byte-stable and can be compared against the checked-in golden copies.
Rows use '|'-separated fields with permutations in cycle notation.
"""

from __future__ import annotations

from typing import Iterable

from .caps import check_cap
from .involutions import _m_index, _psi_core, _varphi_core, psi_fixed_set, varphi_fixed_point
from .perms import (
    CycleDecomposition,
    Permutation,
    Word,
    _stat_record,
    _walk_word,
    cycle_string,
    enumerate_permutations,
    parse_permutation,
)
from .poly import MultiPoly

__all__ = ["emit_table"]


# Pinned display order of the bundled n = 4 tables (cycle notation).
_PSI_SEED: dict[tuple[int, int], tuple[str, ...]] = {
    (4, 1): (
        "(1)(2)(3)(4)",
        "(1)(2 3)(4)",
        "(1)(2)(3 4)",
        "(1)(2 3 4)",
        "(1)(2 4)(3)",
        "(1)(2 4 3)",
    ),
    (4, 2): (
        "(1 2)(3)(4)",
        "(1 4 2)(3)",
        "(1 2)(3 4)",
        "(1 3 4 2)",
        "(1 4 3 2)",
        "(1 3 2)(4)",
    ),
    (4, 3): (
        "(1 3)(2)(4)",
        "(1 4 3)(2)",
        "(1 3)(2 4)",
        "(1 2 4 3)",
        "(1 4 2 3)",
        "(1 2 3)(4)",
    ),
    (4, 4): (
        "(1 4)(2)(3)",
        "(1 4)(2 3)",
        "(1 3 4)(2)",
        "(1 2 3 4)",
        "(1 2 4)(3)",
        "(1 3 2 4)",
    ),
}

_VARPHI_SEED: dict[int, tuple[str, ...]] = {
    2: ("(1 2)(3 4)", "(1 3 4 2)", "(1 4 3 2)"),
    3: ("(1 3)(2 4)", "(1 4 2 3)", "(1 2 4 3)"),
    4: ("(1 4)(2 3)", "(1 3 2 4)", "(1 2 3 4)"),
}

_VARPHI_NOTES = (
    "# note: the middle column is varphi_{4,3}; a known misprint of this"
    " table labels it varphi_{4,4}.",
    "# note: row 3 of the varphi_{4,3} column is (1 2 4 3) -> (1 2 4 3), the"
    " staircase fixed point; a known misprint lists (1 4 2 3) -> (1 4 2 3).",
)


def _hat_str(flat: Word) -> str:
    return "".join(map(str, flat)) if len(flat) <= 9 else " ".join(map(str, flat))


def _weight_str(walk: tuple) -> str:
    s = _stat_record(*walk[:4])
    return str(MultiPoly.monomial((-1) ** s.cdes, ex=s.exc))


def _image_str(word: Word) -> str:
    """Cycle notation of the image word an involution core gives."""
    return cycle_string(Permutation._trusted(word))


def _rows(
    seeded: tuple[str, ...] | None, domain: Iterable[Permutation], key
) -> list[Permutation]:
    """The pinned order if there is one, otherwise the domain sorted by key."""
    if seeded is None:
        return sorted(domain, key=key)
    return [parse_permutation(s) for s in seeded]


def _psi_table(n: int, i: int) -> str:
    fixed = psi_fixed_set(n, i)
    rows = _rows(
        _PSI_SEED.get((n, i)),
        enumerate_permutations("one_at_i", n, i),
        lambda p: (p not in fixed, p.word),
    )
    with_m = i >= 2
    lines = [
        f"# table: psi involution, n={n}, i={i}"
        f" (domain: permutations of [{n}] with 1 at position {i})",
        "# columns: perm | weight | hat | q | m | image"
        if with_m
        else "# columns: perm | weight | hat | q | image",
    ]
    # one walk of each row's word gives every cell but the image's
    for p in rows:
        walk = cycles, _, _, _, flat, q = _walk_word(p.word)
        cells = [
            str(CycleDecomposition._trusted(cycles)),
            _weight_str(walk),
            _hat_str(flat),
            "" if q is None else str(q),
        ]
        if with_m:
            m = _m_index(n, cycles[0])
            cells.append("" if m is None else str(m))
        cells.append(_image_str(_psi_core(n, i, p.word, cycles, q)[0]))
        lines.append("|".join(cells))
    return "\n".join(lines) + "\n"


def _varphi_table(n: int) -> str:
    lines = [
        f"# table: varphi involutions, n={n}"
        f" (domains: derangements of [{n}] with 1 at position i, i=2..{n})",
        "# columns: i | perm | image | tag",
    ]
    if n == 4:
        lines[1:1] = list(_VARPHI_NOTES)
    for i in range(2, n + 1):
        fp = varphi_fixed_point(n, i)
        rows = _rows(
            _VARPHI_SEED.get(i) if n == 4 else None,
            enumerate_permutations("derangements_one_at_i", n, i),
            lambda p: (p == fp, p.word),
        )
        for p in rows:
            cycles = _walk_word(p.word)[0]
            image, case_tag, _ = _varphi_core(p.word, cycles)
            tag = "fixed" if case_tag == "fixed" else ""
            perm = str(CycleDecomposition._trusted(cycles))
            lines.append("|".join([str(i), perm, _image_str(image), tag]))
    return "\n".join(lines) + "\n"


def emit_table(kind: str, n: int, i: int | None = None) -> str:
    """Emit one involution table; ``psi`` needs i, ``varphi`` covers i=2..n."""
    check_cap("involution tables", n)
    if kind == "psi":
        if i is None:
            raise ValueError("psi tables need an index i")
        if n < 2 or not 1 <= i <= n:
            raise ValueError(f"indices out of range: n={n}, i={i}")
        return _psi_table(n, i)
    if kind == "varphi":
        if i is not None:
            raise ValueError("varphi tables cover every i in 2..n and take no index")
        if n < 2:
            raise ValueError(f"indices out of range: n={n}")
        return _varphi_table(n)
    raise ValueError(f"unknown table kind: {kind!r}")
