"""
The size caps: the largest n that each exhaustive stream, table, CLI
enumeration and verify check accepts.  This table is the one place a size
bound is written.  Every guard reads it and refuses an overlarge size before
it allocates anything, and every check of ``verify`` takes its cap from the
entry that bounds what it reads.
"""

from __future__ import annotations

__all__ = ["CAPS", "check_cap"]

CAPS: dict[str, int] = {
    "brute force": 9,  # per-cell sums over S_n; 9! is the desk limit
    "matching enumeration": 8,  # (2n-1)!! unfiltered
    "signed enumeration": 7,  # enumerate_negative_cdes; also `enum ncdp`
    "involution tables": 8,  # psi/varphi are verified exhaustively to 8
    "sequence recurrences": 20,  # `seq b21`, `seq b20`
    "CLI matching enumeration": 7,  # `enum callan|matchings`, `seq mn`
    "cdes distribution": 8,  # verify's cdes-poly checks
    "sequence cross-check": 12,  # verify's two integer recurrences against cdes-poly at y=2
    "image sets": 6,  # verify compares the image and target sets of the walks
}


def check_cap(name: str, n: int) -> None:
    """Raise ValueError when ``n`` exceeds the named cap."""
    cap = CAPS[name]
    if n > cap:
        raise ValueError(f"{name} capped at n <= {cap}, got {n}")
