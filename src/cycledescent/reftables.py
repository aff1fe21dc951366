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
from .involutions import (
    last_top_descent,
    m_index,
    psi,
    psi_fixed_set,
    varphi,
    varphi_fixed_point,
)
from .perms import (
    Permutation,
    cycle_string,
    enumerate_permutations,
    hat,
    parse_permutation,
    statistics,
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


def _hat_str(p: Permutation) -> str:
    word = hat(p)
    return "".join(map(str, word)) if p.n <= 9 else " ".join(map(str, word))


def _weight_str(p: Permutation) -> str:
    s = statistics(p)
    return str(MultiPoly.monomial((-1) ** s.cdes, ex=s.exc))


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
    for p in rows:
        q = last_top_descent(p)
        cells = [
            cycle_string(p),
            _weight_str(p),
            _hat_str(p),
            "" if q is None else str(q),
        ]
        if with_m:
            m = m_index(p)
            cells.append("" if m is None else str(m))
        cells.append(cycle_string(psi(n, i, p).image))
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
            out = varphi(n, i, p)
            tag = "fixed" if out.case_tag == "fixed" else ""
            lines.append("|".join([str(i), cycle_string(p), cycle_string(out.image), tag]))
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
