"""Traced per-layer replay: each layer's public functions on the workloads' inputs.

Every call is wrapped in a timer whose records stay in memory until the run
ends, when ``run.py`` writes their per-name summaries to ``benchmarks/out``.
``trace.overhead_ratio`` is the wall time of the whole traced replay over
the same time less what its timers cost: the number of timed calls times
the measured extra cost of a timed call over a direct one.  Inputs are
built before the timed calls, with the library where needed.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics as st
import time
from collections import Counter, defaultdict

import calib
import child
import gen
from cycledescent import bijections as bj
from cycledescent import diagrams
from cycledescent import involutions as iv
from cycledescent import matchings as mt
from cycledescent import perms
from cycledescent import statpolys as sp
from cycledescent.poly import ZERO, MultiPoly

PERM_N = 8  # perm-streams cap
MATCH_N = 7  # callan-bijections cap
SMALL_REPEATS = 4  # passes over the few one-shot inputs, for enough samples
PROBE_CALLS = 100_000  # calls timed to measure what a timer costs


class Tracer:
    """Times calls by name and keeps the records in memory."""

    def __init__(self) -> None:
        self.records: dict[str, list[float]] = defaultdict(list)
        self.totals: dict[str, tuple[float, int]] = {}
        self.spans: dict[str, list[float]] = {}
        self.problems: list[str] = []
        self.calls = 0

    def section(self, fn, *args):
        """Run ``fn(self, *args)``; names first recorded in it get its monotonic span."""
        start = time.monotonic()
        out = fn(self, *args)
        end = time.monotonic()
        for name in (*self.records, *self.totals):
            self.spans.setdefault(name, [start, end])
        return out

    def call(self, name: str, fn, *args):
        self.calls += 1
        t0 = time.perf_counter()
        out = fn(*args)
        self.records[name].append(time.perf_counter() - t0)
        return out

    def block(self, name: str, fn):
        """Time ``fn()`` as one span."""
        self.calls += 1
        t0 = time.perf_counter()
        out = fn()
        self.totals[name] = (time.perf_counter() - t0, 1)
        return out

    def drain(self, name: str, stream) -> list:
        """Consume a stream as one span, counting its items as the units of work."""
        self.calls += 1
        t0 = time.perf_counter()
        items = list(stream)
        self.totals[name] = (time.perf_counter() - t0, len(items))
        return items

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _oneshot_inputs(seed: int) -> dict:
    """The one-shot workload's inputs, grouped by the layer that parses them."""
    requests = gen.request_list(seed)
    signed = [r["argv"][3] for r in requests if r["kind"] in ("map-gamma", "map-theta")]
    signed += [
        r["argv"][2] for r in requests if r["kind"] == "diagram" and r["argv"][2].startswith("(")
    ]
    large = [
        r["argv"][3]
        for r in requests
        if r["kind"] == "map-gamma" and r["check"]["n"] in gen.LARGE_N
    ]
    return {
        "requests": requests,
        "stats": [r["argv"][2] for r in requests if r["kind"] == "stats"],
        "signed": signed,
        "large": [bj.parse_signed(t) for t in large],
        "json": [
            mt.matching_to_json_dict(bj.gamma(bj.parse_signed(t)))
            for t in signed
        ],
        "diagram": [
            mt.matching_from_json_dict(json.loads(t))
            if t.startswith("{")
            else bj.gamma(bj.parse_signed(t))
            for t in (r["argv"][2] for r in requests if r["kind"] == "diagram")
        ],
    }


def _perms(tr: Tracer, words: list[tuple[int, ...]], oneshot: dict) -> list:
    ps = [tr.call("perms.Permutation", perms.Permutation, w) for w in words]
    for p in ps:
        tr.call("perms.standard_cycles", perms.standard_cycles, p)
        tr.call("perms.statistics", perms.statistics, p)
    tr.drain("perms.enum_all", perms.enumerate_permutations("all", PERM_N))
    tr.drain(
        "perms.enum_derangements_one_at_i",
        itertools.chain.from_iterable(
            perms.enumerate_permutations("derangements_one_at_i", PERM_N, i)
            for i in range(1, PERM_N + 1)
        ),
    )
    for _ in range(SMALL_REPEATS):
        for text in oneshot["stats"]:
            tr.call("perms.parse_permutation", perms.parse_permutation, text)
    return ps


def _signed_weight(p) -> MultiPoly:
    s = perms.statistics(p)
    return MultiPoly.monomial((-1) ** s.cdes, ex=s.exc)


def _poly(tr: Tracer, weights: list[MultiPoly], stat_polys: list[tuple[bool, MultiPoly]]) -> None:
    acc = ZERO
    for w in weights:
        acc = tr.call("poly.add", MultiPoly.__add__, acc, w)
    for der, a in stat_polys:
        for der_b, b in stat_polys:
            if der == der_b:
                tr.call("poly.mul", MultiPoly.__mul__, a, b)
    for _ in range(SMALL_REPEATS):
        for der, a in stat_polys:
            bindings = ({"y": -1}, {"t": 1}) if der else ({"y": -1, "q": 1}, {"q": 1, "t": 1})
            for b in bindings:
                tr.call("poly.substitute", lambda p, kw: p.substitute(**kw), a, b)


def _statpolys(tr: Tracer) -> None:
    sp.statistic_poly.cache_clear()
    tr.block(
        "statpolys.statistic_poly",
        lambda: [sp.statistic_poly(PERM_N, i, der) for der in (False, True) for i in range(1, PERM_N + 1)],
    )
    tr.block(
        "statpolys.cdes_distribution_brute",
        lambda: [sp.cdes_distribution_brute(PERM_N, der) for der in (False, True)],
    )
    reports = tr.block(
        "statpolys.identity_check",
        lambda: [sp.identity_check(identity, PERM_N) for identity in sp.IDENTITY_IDS],
    )
    tr.expect(all(r.passed for r in reports), "an identity check failed")


def _involutions(tr: Tracer, ps: list, branches: Counter) -> None:
    for i in range(1, PERM_N + 1):
        for p in perms.enumerate_permutations("one_at_i", PERM_N, i):
            out = tr.call("involutions.psi", iv.psi, PERM_N, i, p)
            branches[f"involutions.psi.branch.{out.case_tag}"] += 1
    for i in range(2, PERM_N + 1):
        for p in perms.enumerate_permutations("derangements_one_at_i", PERM_N, i):
            out = tr.call("involutions.varphi", iv.varphi, PERM_N, i, p)
            branches[f"involutions.varphi.branch.{out.case_tag}"] += 1
    for p in ps:
        if iv.last_top_descent(p) is not None:
            tr.call("involutions.phi_map", iv.phi_map, p)


def _matchings(tr: Tracer, seed: int, oneshot: dict) -> None:
    callan = tr.drain("matchings.enum_callan", mt.enumerate_matchings(MATCH_N, "callan"))
    rng = random.Random(seed)
    shuffled = []
    for m in callan:
        edges = [tuple(rng.sample(e, 2)) for e in m.edges]
        rng.shuffle(edges)
        shuffled.append((m, edges))
    for m, edges in shuffled:
        got = tr.call("matchings.mk_matching", mt.mk_matching, m.support, edges)
        tr.expect(got == m, "mk_matching changed a matching")
        tr.call("matchings.match_stats", mt.match_stats, m)
        tr.call("matchings.components", mt.components, m)
    for _ in range(SMALL_REPEATS):
        for data in oneshot["json"]:
            tr.call("matchings.matching_from_json_dict", mt.matching_from_json_dict, data)


def _bijections(tr: Tracer, oneshot: dict) -> None:
    stream = tr.drain("bijections.enum_negative_cdes", bj.enumerate_negative_cdes(MATCH_N))
    for s in stream:
        m = tr.call("bijections.gamma", bj.gamma, s)
        back = tr.call("bijections.gamma_inv", bj.gamma_inv, m)
        tr.expect(back == s, f"gamma_inv(gamma({s})) != input")
    for s in stream:
        if len(perms.standard_cycles(s.perm).cycles) == 1:
            m = tr.call("bijections.theta", bj.theta, s)
            back = tr.call("bijections.theta_inv", bj.theta_inv, m)
            tr.expect(back == s, f"theta_inv(theta({s})) != input")
    for _ in range(SMALL_REPEATS):
        for s in oneshot["large"]:
            m = tr.call("bijections.gamma_large", bj.gamma, s)
            tr.call("bijections.gamma_inv_large", bj.gamma_inv, m)
        for text in oneshot["signed"]:
            s = tr.call("bijections.parse_signed", bj.parse_signed, text)
            tr.call("bijections.format_signed", bj.format_signed, s)
        for m in oneshot["diagram"]:
            tr.call("diagrams.render_svg", diagrams.render_svg, m)


def _cli(tr: Tracer, requests: list[dict]) -> None:
    from cycledescent.cli import main

    for _ in range(2):
        previous = ""
        for req in requests:
            code, stdout, error, _ = tr.call(
                f"cli.{req['kind']}", child.call_main, main, gen.argv_for(req, previous)
            )
            previous = stdout
            if error is None and req.get("malformed") is None:
                tr.expect(gen.check_response(req, code, stdout, error) is None, "cli response")


def _replay(tr: Tracer, seed: int, inputs: dict) -> Counter:
    """Every section; returns the branch counts."""
    branches: Counter = Counter()
    ps = tr.section(_perms, inputs["words"], inputs["oneshot"])
    tr.section(_poly, inputs["weights"], inputs["stat_polys"])
    tr.section(_matchings, seed, inputs["oneshot"])
    tr.section(_statpolys)
    tr.section(_involutions, ps, branches)
    tr.section(_bijections, inputs["oneshot"])
    tr.section(_cli, inputs["oneshot"]["requests"])
    return branches


def timer_cost() -> float:
    """Seconds a timed call costs beyond a direct call of the same function.

    Best of three loops each way, on a call that does almost nothing.
    """
    probe, loop = Tracer(), range(PROBE_CALLS)

    def direct() -> float:
        t0 = time.perf_counter()
        for _ in loop:
            abs(1)
        return time.perf_counter() - t0

    def timed() -> float:
        t0 = time.perf_counter()
        for _ in loop:
            probe.call("probe", abs, 1)
        return time.perf_counter() - t0

    return (min(timed() for _ in range(3)) - min(direct() for _ in range(3))) / PROBE_CALLS


def _inputs(seed: int) -> dict:
    words = list(itertools.permutations(range(1, PERM_N + 1)))
    weights = [
        _signed_weight(p)
        for i in range(1, PERM_N + 1)
        for p in perms.enumerate_permutations("one_at_i", PERM_N, i)
    ] + [
        _signed_weight(p)
        for i in range(2, PERM_N + 1)
        for p in perms.enumerate_permutations("derangements_one_at_i", PERM_N, i)
    ]
    stat_polys = [
        (der, sp.statistic_poly(PERM_N, i, der))
        for der in (False, True)
        for i in range(1, PERM_N + 1)
    ]
    return {
        "words": words,
        "weights": weights,
        "stat_polys": stat_polys,
        "oneshot": _oneshot_inputs(seed),
    }


def _us(samples: list[float]) -> float:
    return st.median(samples) * 1e6


def _metrics(tr: Tracer, branches: Counter, factor) -> dict:
    """Per-layer metrics; ``factor(span)`` is the host-speed factor of a span."""
    metrics: dict[str, tuple[float, str]] = {}
    for name, times in tr.records.items():
        unit, scale = ("ms", 1e3) if name.startswith("cli.") else ("us", 1e6)
        metrics[f"{name}.{unit}"] = (st.median(times) * scale * factor(tr.spans[name]), unit)
    for name, (seconds, items) in tr.totals.items():
        if name.startswith("statpolys."):
            metrics[f"{name}.s"] = (seconds * factor(tr.spans[name]), "s")
        else:
            metrics[f"{name}.us_per_item"] = (seconds * 1e6 / items * factor(tr.spans[name]), "us/item")
    for name, count in sorted(branches.items()):
        metrics[name] = (count, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(seed: int, samples: list[list[float]]) -> dict:
    """Per-layer metrics, timings scaled by the host speed while each was taken.

    ``samples`` is the live list of host-speed samples (calib.sampling).
    """
    inputs = _inputs(seed)
    tr = Tracer()
    start = time.perf_counter()
    branches = _replay(tr, seed, inputs)
    traced_s = time.perf_counter() - start
    overhead = {"value": traced_s / (traced_s - tr.calls * timer_cost()), "unit": "ratio"}
    return {
        "metrics": {
            **_metrics(tr, branches, lambda span: calib.speed_factor(samples, *span)),
            "trace.overhead_ratio": overhead,
        },
        "raw_metrics": {**_metrics(tr, branches, lambda span: 1.0), "trace.overhead_ratio": overhead},
        "attempted": tr.calls,
        "problems": tr.problems,
        "records": {
            name: {"count": len(t), "total_s": sum(t), "median_us": _us(t), "max_us": max(t) * 1e6}
            for name, t in sorted(tr.records.items())
        },
    }
