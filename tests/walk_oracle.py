"""The bijection walks of ``verify`` as they were when they walked objects.

``walk_signed`` and ``walk_callan`` are the object-based ``_walk_signed``
and ``_walk_callan`` of ``verify`` before the walks read plain words and
partner lists, kept with their helper ``_matching``.  Since then the names
of the walks lost their underscore, and the walks follow ``verify`` in what
they record: the signed walk keeps no image set but tests each image with
the naive ``_is_callan_partner_list`` and counts the objects that break
each rule of statistic transport, and the Callan walk keeps no target set
and runs no reverse trip.  They walk the public
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
from cycledescent.perms import standard_cycles, statistics
from cycledescent.verify import _CallanWalk, _SignedWalk


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


def _is_callan_partner_list(partner: tuple[int, ...], n: int) -> bool:
    """Whether ``partner`` is the partner list of a Callan matching of 1..n:
    2n + 2 entries, 0 in slots 0 and 1, and on the keys 2..2n+1 an
    involution with no fixed key and no upline, read key by key."""
    keys = range(2, 2 * n + 2)
    if len(partner) != 2 * n + 2 or partner[:2] != (0, 0):
        return False
    for k in keys:
        q = partner[k]
        if q not in keys or q == k or partner[q] != k:
            return False
        if mt.edge_class((mt.MVertex(k >> 1, k & 1), mt.MVertex(q >> 1, q & 1))) == "upline":
            return False
    return True


def walk_signed(n: int) -> _SignedWalk:
    w = _SignedWalk()
    first = w.first
    for s in bj.enumerate_negative_cdes(n):
        # cached on the Permutation its sign sets share
        pstats, cycles = statistics(s.perm), standard_cycles(s.perm).cycles
        w.count += 1
        m = _matching(bj._gamma_core(cycles, s.neg, n))
        if bj._gamma_inv_core(m.partner) != (cycles, s.neg):
            first.setdefault("gamma-roundtrip", f"round trip broke at {s}")
        if not _is_callan_partner_list(m.partner, n):
            w.invalid += 1
            first.setdefault("no-callan-image", str(s))
        stats = mt.match_stats(m)
        w.breaks += stats.ver != pstats.fix
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
        w.derangements += pstats.fix == 0
    return w


def walk_callan(n: int) -> _CallanWalk:
    w = _CallanWalk()
    for m in mt.enumerate_matchings(n, "callan"):
        w.count += 1
        # (i, 0)-(i, 1) is a vertical: key 2i partnered with key 2i + 1
        w.no_vertical += all(m.partner[k] != k + 1 for k in range(2, 2 * n + 2, 2))
    return w
