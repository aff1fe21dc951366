"""A naive oracle for the key-based matching kernels, shared by the tests.

It reads each edge's class off its two vertices and counts components by a
union-find over indices, so it shares no code with the partner-key
arithmetic of ``matchings``.
"""

from cycledescent.matchings import edge_class


def naive_stats(m):
    """Edge classes read off the vertex pairs, and a union-find over indices."""
    kinds = {"arc": 0, "upline": 0, "downline": 0, "vertical": 0}
    root = {i: i for i in m.support}

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for a, b in m.edges:
        if a.row == b.row:
            kind = "arc"
        else:
            bottom, top = (a, b) if a.row == 0 else (b, a)
            kind = "vertical" if bottom.index == top.index else (
                "upline" if bottom.index < top.index else "downline"
            )
        assert edge_class((a, b)) == kind
        kinds[kind] += 1
        root[find(a.index)] = find(b.index)
    groups = {}
    for i in m.support:
        groups.setdefault(find(i), []).append(i)
    return kinds, sorted(tuple(g) for g in groups.values())
