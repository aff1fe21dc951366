"""
The size caps: the largest n that each exhaustive stream, table, CLI
enumeration and verify check accepts.  This table is the one place a size
bound is written.  Every guard reads it and refuses an overlarge size before
it allocates anything, and every check of ``verify`` is capped by the entry
that bounds what it reads.  Each reads the table as it stands at the call:
nothing copies a cap at import.

The layout of the ``verify`` suites lives here too, as plain data: the
suites, their check ids in run order, and each check's least size, ``CAPS``
entry and walks, with the seed of the randomized checks.  ``verify`` keeps
only the fold of each check id and reads the rest off this layout at each
run; the CLI builds its ``verify`` help from this layout alone, so that no
other command loads ``verify``.
"""

from __future__ import annotations

__all__ = [
    "CAPS",
    "check_cap",
    "DEFAULT_SEED",
    "SUITE_LAYOUT",
    "CHECK_LAYOUT",
    "SUITES",
    "verify_cap",
    "suite_cap",
]

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


DEFAULT_SEED = 20260809  # seed of verify's randomized checks

# the walks that the checks read
_TALLY, _PERMS, _BIJ = ("tally",), ("perms",), ("signed", "callan")
# the entries that several checks share
_BRUTE, _CDES, _INVOLUTIONS = "brute force", "cdes distribution", "involution tables"
_SIGNED, _IMAGES = "signed enumeration", "image sets"

# suite -> check id -> (least n, the CAPS entry that bounds what the check
# reads, the walks it folds off), in the order the suite runs its checks; a
# check of no entry reads no size and runs once, at n = 1
SUITE_LAYOUT: dict[str, dict[str, tuple[int, str | None, tuple[str, ...]]]] = {
    "theorem-p": {
        "closed-form-all": (2, _BRUTE, _TALLY),
        "closed-form-derangement": (2, _BRUTE, _TALLY),
    },
    "lemmas": {
        "recurrence-all": (1, _BRUTE, _TALLY),
        "recurrence-derangement": (2, _BRUTE, _TALLY),
    },
    "theorem-b": {
        "cdes-poly-all": (1, _CDES, _TALLY),
        "cdes-poly-derangement": (1, _CDES, _TALLY),
        "sequence-cross-check": (1, "sequence cross-check", ()),
    },
    # one check per identity of ``statpolys``, which reads each identity's least n here
    "identities": {
        "identity-brenti": (1, _BRUTE, _TALLY),
        "identity-kz-total": (1, _BRUTE, _TALLY),
        "identity-kz-refined": (1, _BRUTE, _TALLY),
        "identity-signed-sni": (2, _BRUTE, _TALLY),
        "identity-signed-sn": (2, _BRUTE, _TALLY),
        "identity-signed-d-t": (1, _BRUTE, _TALLY),
        "identity-signed-d-parity": (1, _BRUTE, _TALLY),
        "poly-ring-axioms": (1, None, ()),  # random polynomials, no size to cap
    },
    "involutions": {
        "psi-involution": (2, _INVOLUTIONS, _PERMS),
        "psi-fixed-weight": (2, _INVOLUTIONS, _PERMS),
        "varphi-involution": (2, _INVOLUTIONS, _PERMS),
        "phi-preservation": (1, _INVOLUTIONS, _PERMS),
    },
    "bijections": {
        "count-callan": (1, _SIGNED, _BIJ),
        "count-callan-no-vertical": (1, _SIGNED, _BIJ),
        "gamma-image": (1, _IMAGES, _BIJ),
        "theta-image": (1, _IMAGES, _BIJ),
        "gamma-roundtrip": (1, _SIGNED, _BIJ),
        "theta-roundtrip": (1, _SIGNED, _BIJ),
        "statistic-transport": (1, _SIGNED, _BIJ),
        "derangement-restriction": (1, _IMAGES, _BIJ),
        "downline-per-cycle": (1, _SIGNED, _BIJ),
        "downline-global-report": (1, _SIGNED, _BIJ),
    },
}

# check id -> (least n, CAPS entry, walks), every suite's checks in run order
CHECK_LAYOUT = {c: spec for checks in SUITE_LAYOUT.values() for c, spec in checks.items()}
SUITES: dict[str, tuple[str, ...]] = {s: tuple(checks) for s, checks in SUITE_LAYOUT.items()}
SUITES["all"] = tuple(CHECK_LAYOUT)


def verify_cap(check_id: str) -> int:
    """The cap of one verify check: its CAPS entry as it stands now."""
    entry = CHECK_LAYOUT[check_id][1]
    return 1 if entry is None else CAPS[entry]


def suite_cap(suite: str) -> int:
    return max(verify_cap(c) for c in SUITES[suite])
