"""Seeded one-shot CLI requests and the independent checks on their outputs.

Nothing here imports ``cycledescent``: requests are built, and responses are
checked, with this module's own cycle walk, signed-notation parser and
matching checks, so a defect in the library cannot hide in its own check.

One pass over the request list has a fixed mix; the seed only chooses the
permutations, signs, matchings and the order.  That keeps latency
percentiles comparable across seeds.  Nothing in the project says how often
users send each kind of request, so the mix follows one plain rule: every
request kind at every size equally often (``PER_SIZE`` times), and every
malformed kind equally often (``PER_MALFORMED`` times), which makes about
one request in ten malformed.  Aggregates over a pass are therefore an
unweighted mix of the (kind, size) grid; the per-kind latencies of the
traced replay (``cli.<kind>.ms``) do not depend on the mix.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import xml.etree.ElementTree as ET

SMALL_N = (3, 4, 5, 6, 7, 8)
# Past every enumeration cap (7 for matchings, 8 for brute force).
LARGE_N = (50, 100, 200, 300)

# Each gamma/theta request is followed by the inverse map on its own output.
KINDS = ("gamma", "theta", "stats", "diagram")
PER_SIZE = 4

# Every one must exit 2.  The edge shapes cover each way an edge list can be
# mis-shaped.  With PER_SIZE = 4 a pass has 240 well-formed and 27 malformed
# requests.
MALFORMED = (
    "nondescent-sign",
    "upline",
    "disconnected",
    "bad-json",
    "flat-edge",
    "short-vertex",
    "long-edge",
    "lone-vertex",
    "string-coordinate",
)
PER_MALFORMED = 3

# ---------------------------------------------------------------------------
# Own combinatorics: cycle walk, signed notation, matchings.


def cycles_of(word: list[int]) -> list[list[int]]:
    """Standard cycles of a one-line word: smallest first, increasing minima."""
    n = len(word)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = word[start - 1]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = word[v - 1]
        out.append(cyc)
    return out


def word_of(cycles: list[list[int]], n: int) -> list[int]:
    word = [0] * n
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            word[a - 1] = b
    return word


def cycle_descents(cycles: list[list[int]]) -> list[int]:
    """Interior cycle elements larger than their successor."""
    return sorted(c[j] for c in cycles for j in range(1, len(c) - 1) if c[j] > c[j + 1])


def own_stats(word: list[int]) -> dict:
    cycles = cycles_of(word)
    cdes = cycle_descents(cycles)
    return {
        "n": len(word),
        "exc": sum(1 for i, v in enumerate(word, 1) if v > i),
        "fix": sum(1 for i, v in enumerate(word, 1) if v == i),
        "cyc": len(cycles),
        "cdes": len(cdes),
        "cdes_set": cdes,
        "inv1": word.index(1) + 1,
        "cycles": cycles,
    }


def format_cycles(cycles: list[list[int]], neg: frozenset[int] | None = None) -> str:
    if neg is None:
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
    return "".join(
        "(" + " ".join(f"{v}{'-' if v in neg else '+'}" for v in c) + ")" for c in cycles
    )


_SIGNED_CYCLE = re.compile(r"\(([^()]*)\)")
_SIGNED_TOKEN = re.compile(r"(\d+)([+-]?)")


def parse_signed_text(text: str) -> tuple[list[int], list[int]]:
    """(one-line word, sorted negative values) of signed cycle notation."""
    cycles, neg = [], []
    for body in _SIGNED_CYCLE.findall(text):
        cyc = []
        for value, sign in _SIGNED_TOKEN.findall(body):
            cyc.append(int(value))
            if sign == "-":
                neg.append(int(value))
        cycles.append(cyc)
    n = sum(len(c) for c in cycles)
    return word_of(cycles, n), sorted(neg)


def matching_problems(data: dict, n: int) -> tuple[str | None, dict]:
    """Check a matching JSON dict; returns (problem, facts)."""
    if data.get("support") != list(range(1, n + 1)):
        return "support is not 1..n", {}
    covered = set()
    parent = list(range(n + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    uplines, verticals = 0, []
    for (i, r), (j, s) in data["edges"]:
        for v in ((i, r), (j, s)):
            if v in covered:
                return f"vertex {v} covered twice", {}
            covered.add(v)
        if r != s:
            bottom, top = (i, j) if r == 0 else (j, i)
            uplines += bottom < top
            if bottom == top:
                verticals.append(bottom)
        parent[find(i)] = find(j)
    if len(covered) != 2 * n:
        return "not a perfect matching", {}
    components = len({find(i) for i in range(1, n + 1)})
    return None, {"uplines": uplines, "verticals": sorted(verticals), "components": components}


# ---------------------------------------------------------------------------
# Request generation.


def _random_word(rng: random.Random, n: int) -> list[int]:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return word


def _random_cyclic(rng: random.Random, n: int) -> list[list[int]]:
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    return [[1, *rest]]


def _signed(rng: random.Random, cycles: list[list[int]]) -> tuple[str, list[int], list[int]]:
    neg = frozenset(d for d in cycle_descents(cycles) if rng.random() < 0.5)
    n = sum(len(c) for c in cycles)
    return format_cycles(cycles, neg), word_of(cycles, n), sorted(neg)


def _random_matching(rng: random.Random, n: int) -> dict:
    vertices = [[i, r] for i in range(1, n + 1) for r in (0, 1)]
    rng.shuffle(vertices)
    edges = [sorted(vertices[k : k + 2]) for k in range(0, 2 * n, 2)]
    return {"support": list(range(1, n + 1)), "edges": sorted(edges)}


def _disconnected_callan(rng: random.Random, n: int) -> dict:
    """Verticals and two-index blocks joined by a bottom and a top arc."""
    edges, i = [], 1
    while i <= n:
        # a block must not cover all of 1..n, or the matching is connected
        if i < n and (i, n) != (1, 2) and rng.random() < 0.5:
            edges += [[[i, 0], [i + 1, 0]], [[i, 1], [i + 1, 1]]]
            i += 2
        else:
            edges.append([[i, 0], [i, 1]])
            i += 1
    return {"support": list(range(1, n + 1)), "edges": edges}


def _forward(rng: random.Random, kind: str, n: int) -> list[dict]:
    cycles = _random_cyclic(rng, n) if kind == "theta" else cycles_of(_random_word(rng, n))
    text, word, neg = _signed(rng, cycles)
    fwd = {
        "kind": f"map-{kind}",
        "argv": ["map", kind, "--input", text, "--format", "json"],
        "expect": 0,
        "check": {"n": n, "word": word, "neg": neg},
    }
    inv = {
        "kind": f"map-{kind}-inv",
        "argv": ["map", f"{kind}-inv", "--input"],
        "input_from": "previous",
        "expect": 0,
        "check": {"n": n, "word": word, "neg": neg},
    }
    return [fwd, inv]


def _stats(rng: random.Random, n: int, k: int) -> dict:
    word = _random_word(rng, n)
    text = " ".join(map(str, word)) if k % 2 else format_cycles(cycles_of(word))
    return {"kind": "stats", "argv": ["stats", "--perm", text], "expect": 0, "check": {"word": word}}


def _diagram(rng: random.Random, n: int, k: int) -> dict:
    if k % 2:
        text, _, _ = _signed(rng, cycles_of(_random_word(rng, n)))
        uplines = 0
    else:
        data = _random_matching(rng, n)
        text = json.dumps(data)
        uplines = matching_problems(data, n)[1]["uplines"]
    return {
        "kind": "diagram",
        "argv": ["diagram", "--input", text, "--format", "svg"],
        "expect": 0,
        "check": {"n": n, "uplines": uplines},
    }


def _malformed(rng: random.Random, what: str, k: int) -> dict:
    n = SMALL_N[k % len(SMALL_N)]
    inverse = rng.choice(("gamma-inv", "theta-inv"))
    if what == "nondescent-sign":
        cycles = cycles_of(_random_word(rng, n))
        desc = set(cycle_descents(cycles))
        # a cycle minimum is never a cycle descent
        bad = rng.choice([c[0] for c in cycles] + [v for v in range(1, n + 1) if v not in desc])
        return _reject(what, ["map", "gamma", "--input", format_cycles(cycles, frozenset({bad}))])
    if what == "upline":
        m = _random_matching(rng, n)
        while not matching_problems(m, n)[1]["uplines"]:
            m = _random_matching(rng, n)
        return _reject(what, ["map", inverse, "--input", json.dumps(m)])
    if what == "disconnected":
        return _reject(what, ["map", "theta-inv", "--input", json.dumps(_disconnected_callan(rng, n))])
    if what == "bad-json":
        text = json.dumps(_random_matching(rng, n))
        return _reject(what, ["map", inverse, "--input", text[: rng.randint(1, len(text) - 1)]])
    edges = {
        "flat-edge": [[1, 2]],
        "short-vertex": [[[1, 0], [1]]],
        "long-edge": [[[1, 0], [1, 1], [2, 0]]],
        "lone-vertex": [[[1, 0]]],
        "string-coordinate": [[["a", 0], [1, 1]]],
    }[what]
    return _reject(what, ["map", inverse, "--input", json.dumps({"support": [1], "edges": edges})])


def _reject(what: str, argv: list[str]) -> dict:
    return {"kind": "reject", "malformed": what, "argv": argv, "expect": 2, "check": {}}


def request_list(seed: int) -> list[dict]:
    """One pass of one-shot requests; the same seed gives the same list."""
    rng = random.Random(seed)
    units: list[list[dict]] = []
    for kind in KINDS:
        for n in SMALL_N + LARGE_N:
            for k in range(PER_SIZE):
                if kind in ("gamma", "theta"):
                    units.append(_forward(rng, kind, n))
                elif kind == "stats":
                    units.append([_stats(rng, n, k)])
                else:
                    units.append([_diagram(rng, n, k)])
    for what in MALFORMED:
        units.extend([_malformed(rng, what, k)] for k in range(PER_MALFORMED))
    rng.shuffle(units)
    return [req for unit in units for req in unit]


def request_list_hash(requests: list[dict]) -> str:
    return hashlib.sha256(json.dumps(requests, sort_keys=True).encode()).hexdigest()


def argv_for(req: dict, previous_stdout: str) -> list[str]:
    if req.get("input_from") == "previous":
        return [*req["argv"], previous_stdout.strip()]
    return req["argv"]


# ---------------------------------------------------------------------------
# Response checks.


def check_response(req: dict, code: object, stdout: str, error: str | None) -> str | None:
    """None when the response is right, else why it is wrong."""
    if error is not None:
        return f"uncaught exception: {error}"
    if code != req["expect"]:
        return f"exit code {code}, expected {req['expect']}"
    if req["expect"] != 0:
        return None
    kind, want = req["kind"], req["check"]
    try:
        if kind in ("map-gamma", "map-theta"):
            problem, facts = matching_problems(json.loads(stdout), want["n"])
            if problem:
                return problem
            cycles = cycles_of(want["word"])
            fixed = [i for i, v in enumerate(want["word"], 1) if i == v]
            if facts["uplines"]:
                return "matching has an upline"
            if facts["components"] != len(cycles):
                return f"{facts['components']} components for {len(cycles)} cycles"
            if facts["verticals"] != fixed:
                return "vertical edges differ from the fixed points"
        elif kind in ("map-gamma-inv", "map-theta-inv"):
            if parse_signed_text(stdout) != (want["word"], want["neg"]):
                return "inverse did not return the forward input"
        elif kind == "stats":
            return _stats_problem(stdout, want["word"])
        elif kind == "diagram":
            root = ET.fromstring(stdout)
            tags = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
            red = sum(1 for el in root.iter() if el.get("stroke") == "#cc2222")
            if tags.count("circle") != 2 * want["n"]:
                return "wrong vertex count"
            if tags.count("line") + tags.count("path") != want["n"]:
                return "wrong edge count"
            if red != want["uplines"]:
                return f"{red} highlighted uplines, expected {want['uplines']}"
    except (ValueError, KeyError, TypeError, ET.ParseError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def _stats_problem(stdout: str, word: list[int]) -> str | None:
    s = own_stats(word)
    fields = dict(re.findall(r"(\w+)=(\d+)", stdout))
    got = {k: int(v) for k, v in fields.items()}
    want = {k: s[k] for k in ("n", "exc", "fix", "cyc", "cdes")}
    if got != want:
        return f"statistics {got}, expected {want}"
    if s["exc"] + s["cyc"] + s["cdes"] != s["n"]:
        return "exc + cyc + cdes != n"
    lines = stdout.splitlines()
    expected = [
        f"one-line: {' '.join(map(str, word))}",
        f"cycles:   {format_cycles(s['cycles'])}",
        f"cdes set: {s['cdes_set']}",
        f"position of 1: {s['inv1']}",
    ]
    missing = [e for e in expected if e not in lines]
    return f"missing lines {missing}" if missing else None
