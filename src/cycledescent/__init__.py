"""
Cycle-descent statistics on permutations, their sign-reversing
involutions, and the bijection with Callan perfect matchings — every
closed form and recurrence here is backed by exhaustive brute-force
checks at desk scale (see :mod:`cycledescent.verify` and the CLI).

Importing the package loads only the object layer: permutations,
involutions, matchings, the bijections and their diagrams.  The names it
re-exports from ``poly``, ``statpolys`` and ``verify``, and those modules
and ``reftables`` as attributes, load on first access (PEP 562), so a
one-shot call that needs none of them never compiles them.
"""

from .bijections import (
    BlockSeq,
    SignedPermutation,
    blocks,
    enumerate_negative_cdes,
    format_signed,
    gamma,
    gamma_inv,
    is_negative_cdes,
    parse_signed,
    theta,
    theta_inv,
)
from .involutions import (
    InvolutionOutcome,
    last_top_descent,
    m_index,
    phi_map,
    psi,
    psi_fixed_set,
    varphi,
    varphi_fixed_point,
)
from .matchings import (
    MatchStats,
    MVertex,
    PerfectMatching,
    components,
    edge_class,
    enumerate_matchings,
    is_callan,
    match_stats,
    mk_matching,
)
from .perms import (
    CycleDecomposition,
    Permutation,
    StatRecord,
    cycle_string,
    enumerate_permutations,
    hat,
    inverse,
    parse_permutation,
    red,
    standard_cycles,
    statistics,
)

# module -> the names the package re-exports from it, each loaded on first access
_LAZY = {
    "poly": ("ONE", "Q", "T", "X", "Y", "ZERO", "MultiPoly"),
    "statpolys": (
        "IDENTITY_IDS",
        "IdentityReport",
        "PolyTable",
        "alternating_closed_form",
        "b20_count",
        "cdes_distribution_brute",
        "cdes_distribution_rec",
        "identity_check",
        "klazar_count",
        "recurrence_table",
        "statistic_poly",
    ),
    "verify": ("VerificationSummary", "run_verification"),
    "reftables": (),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import a deferred module, or the module of a deferred name, and
    bind what was asked for in the package namespace."""
    module = _LAZY_NAMES.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    value = loaded if module == name else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})


__version__ = "0.1.0"
