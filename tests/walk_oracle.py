"""The bijection walks of ``verify`` as they were when they walked objects.

``walk_signed`` and ``walk_callan`` are the object-based ``_walk_signed``
and ``_walk_callan`` of ``verify`` before the walks read plain words and
partner lists, kept verbatim with their helper ``_matching`` (only the
names of the walks lost their underscore, and each image or target is keyed
by its whole partner list as bytes, as in ``verify``).  They walk the public
streams ``enumerate_negative_cdes`` and ``enumerate_matchings``, build a
``SignedPermutation`` and a ``PerfectMatching`` for every object and read
``match_stats`` and the accessors ``statistics`` and ``standard_cycles``,
so the records of the plain-data walks can be compared with them field by
field.  The accessors cached their values on the ``Permutation`` when these
walks were written, as a comment in ``walk_signed`` still says; now each
call walks the word again.  The theta cores that ``walk_signed`` calls,
``_theta_core`` and ``_theta_inv_core``, are kept here verbatim too:
``bijections`` no longer has them, since theta is gamma on one cycle and
``verify`` reads the theta checks off the gamma trip, so this walk still
runs the theta trip on its own.
"""

from typing import Sequence

from cycledescent import bijections as bj
from cycledescent import matchings as mt
from cycledescent.caps import CAPS
from cycledescent.perms import standard_cycles, statistics
from cycledescent.verify import _IMAGE_CHECKS, _CallanWalk, _exact, _SignedWalk


def _theta_core(cycle: Sequence[int], neg: frozenset[int]) -> tuple[int, ...]:
    """Partner list of ``theta`` on one standard cycle of 1..len(cycle)."""
    partner = [0] * (2 * len(cycle) + 2)
    bj._theta_partners(cycle, neg, partner)
    return tuple(partner)


def _theta_inv_core(partner: Sequence[int]) -> tuple[tuple[int, ...], frozenset[int]]:
    """Cycle and negative set that ``theta`` maps to the component of slot 1."""
    cycle, neg = bj._unfold(partner, 1, [False] * (len(partner) >> 1))
    return cycle, frozenset(neg)


def _matching(partner: tuple[int, ...]) -> mt.PerfectMatching:
    """The matching of 1..n with a partner list of 2n + 2 keys that a core built."""
    return mt.PerfectMatching(support=tuple(range(1, len(partner) >> 1)), partner=partner)


def walk_signed(n: int) -> _SignedWalk:
    w = _SignedWalk()
    first = w.first
    images = {c: set() for c in _IMAGE_CHECKS} if n <= CAPS["image sets"] else {}
    for s in bj.enumerate_negative_cdes(n):
        # cached on the Permutation its sign sets share
        pstats, cycles = statistics(s.perm), standard_cycles(s.perm).cycles
        w.count += 1
        m = _matching(bj._gamma_core(cycles, s.neg, n))
        if bj._gamma_inv_core(m.partner) != (cycles, s.neg):
            first.setdefault("gamma-roundtrip", f"round trip broke at {s}")
        stats = mt.match_stats(m)
        if stats.com != pstats.cyc or stats.ver != pstats.fix:
            first.setdefault("statistic-transport", (
                f"{s}: com={stats.com} cyc={pstats.cyc}"
                f" ver={stats.ver} fix={pstats.fix}"
            ))
        if stats.down == len(s.neg) + (0 if m.partner[3] & 1 else 1):  # key 3 is (1, 1)
            w.holds += 1
        else:
            w.cyclic_fails += pstats.cyc == 1
            if "downline-global-report" not in first:
                first["downline-global-report"] = str(s)
        if pstats.cyc == 1:
            w.cyclic += 1
            t = _matching(_theta_core(cycles[0], s.neg))
            if _theta_inv_core(t.partner) != (cycles[0], s.neg):
                first.setdefault("theta-roundtrip", f"round trip broke at {s}")
            # theta and gamma agree on a cyclic object, so its theta image is
            # measured again only when the two cores disagree
            down = stats.down if t.partner == m.partner else mt.match_stats(t).down
            bump = 1 if mt._edge_kind(3, t.partner[3]) == "downline" else 0  # key 3 is (1, 1)
            if down != len(s.neg) + bump:
                first.setdefault(
                    "downline-per-cycle", f"{s}: down={down}, neg={len(s.neg)}, bump={bump}"
                )
            if images:
                images["theta-image"].add(bytes(t.partner))
        w.derangements += pstats.fix == 0
        if images:
            key = bytes(m.partner)
            images["gamma-image"].add(key)
            if pstats.fix == 0:
                images["derangement-restriction"].add(key)
    w.images = {c: _exact(keys) for c, keys in images.items()}
    return w


def walk_callan(n: int) -> _CallanWalk:
    w = _CallanWalk()
    targets = {c: set() for c in _IMAGE_CHECKS} if n <= CAPS["image sets"] else {}
    for m in mt.enumerate_matchings(n, "callan"):
        w.count += 1
        # (i, 0)-(i, 1) is a vertical: key 2i partnered with key 2i + 1
        vertical_free = all(m.partner[k] != k + 1 for k in range(2, 2 * n + 2, 2))
        w.no_vertical += vertical_free
        cycles, neg = bj._gamma_inv_core(m.partner)
        if bj._gamma_core(cycles, neg, n) != m.partner and w.reverse_trip is None:
            w.reverse_trip = f"reverse round trip broke at {m}"
        if targets:
            key = bytes(m.partner)
            targets["gamma-image"].add(key)
            if mt.match_stats(m).com == 1:
                targets["theta-image"].add(key)
            if vertical_free:
                targets["derangement-restriction"].add(key)
    w.targets = {c: _exact(keys) for c, keys in targets.items()}
    return w
