"""
The size caps: the largest n that each exhaustive stream, table and CLI
enumeration accepts.  Every guard reads this one table and refuses an
overlarge size before it allocates anything.  (The per-check caps of
``verify`` live in its check registry.)
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
}


def check_cap(name: str, n: int) -> None:
    """Raise ValueError when ``n`` exceeds the named cap."""
    cap = CAPS[name]
    if n > cap:
        raise ValueError(f"{name} capped at n <= {cap}, got {n}")
