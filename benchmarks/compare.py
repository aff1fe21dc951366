"""Compare two sets of benchmark results, or show the spread of one.

    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl
    python3 benchmarks/compare.py --spread RESULTS.jsonl

Result files are the JSON lines ``run.py --out FILE`` appends.  Runs are
grouped by (workload, trace) and each metric is reduced to its median over
the runs.  The comparison prints new/base for every end-to-end and
per-layer metric with both medians, and flags each end-to-end metric that
got worse by more than its bound in BENCHMARK.json; beside it, the same
ratio of the figures before host-speed scaling.  The spread mode prints
each metric's interquartile range as a share of its median, against the
bound, and the spread of the unscaled figures.  Exit status 1 means a
flagged regression or a spread over bound.
"""

from __future__ import annotations

import argparse
import json
import statistics as st
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path, key: str = "metrics") -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values; failed_ratio comes from the counts.

    ``key`` is "metrics" for the scaled figures or "raw_metrics" for the
    unscaled ones.
    """
    groups: dict = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        values = groups[(rec["workload"], rec["trace"])]
        for name, m in rec[key].items():
            values[name].append(m["value"])
        values["failed_ratio"].append(rec["failed"] / rec["attempted"])
    return groups


def ratio(base: list[float], new: list[float]) -> str:
    b, n = st.median(base), st.median(new)
    return f"{n / b:.4f}" if b else "n/a"


def iqr_share(values: list[float]) -> float:
    q1, _, q3 = st.quantiles(values, n=4)
    return (q3 - q1) / st.median(values)


def metric_specs() -> dict[str, dict]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def worse_by(base: float, new: float, better: str) -> float:
    """Share by which ``new`` is worse than ``base`` (negative when better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def compare(base: Path, new: Path) -> int:
    specs = metric_specs()
    old_groups, new_groups = load(base), load(new)
    old_raw, new_raw = load(base, "raw_metrics"), load(new, "raw_metrics")
    flagged = 0
    for key in sorted(old_groups.keys() & new_groups.keys()):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        for name in sorted(old_groups[key].keys() & new_groups[key].keys()):
            b, n = st.median(old_groups[key][name]), st.median(new_groups[key][name])
            spec = specs.get(name, {})
            flag = ""
            if "bound" in spec and b and worse_by(b, n, spec["better"]) > spec["bound"]:
                flag = f"  WORSE than bound {spec['bound']}"
                flagged += 1
            raw = ratio(old_raw[key][name], new_raw[key][name]) if name in old_raw[key] else "n/a"
            print(
                f"{name:48s} {ratio(old_groups[key][name], new_groups[key][name]):>8s}"
                f"  new {n:.6g} / base {b:.6g} {spec.get('unit', '')}  unscaled {raw}{flag}"
            )
    return 1 if flagged else 0


def spread(path: Path) -> int:
    specs = metric_specs()
    over = 0
    raw_groups = load(path, "raw_metrics")
    for key, metrics in sorted(load(path).items()):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        for name, values in sorted(metrics.items()):
            med = st.median(values)
            if len(values) < 2 or not med:
                print(f"{name:48s} median {med:.6g} ({len(values)} runs)")
                continue
            share = iqr_share(values)
            raw = raw_groups[key].get(name)
            raw_share = f"{iqr_share(raw):.4f}" if raw and st.median(raw) else "n/a"
            bound = specs.get(name, {}).get("bound")
            mark = ""
            if bound is not None and share > bound:
                mark, over = "  OVER BOUND", over + 1
            elif bound is not None and share > bound / 3:
                mark = "  over a third of the bound"
            print(
                f"{name:48s} median {med:.6g}  spread {share:.4f}  bound {bound}"
                f"  unscaled spread {raw_share}  ({len(values)} runs){mark}"
            )
    return 1 if over else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--spread", action="store_true")
    args = parser.parse_args()
    if args.spread:
        return max(spread(f) for f in args.files)
    if len(args.files) != 2:
        parser.error("comparison needs BASE and NEW")
    return compare(*args.files)


if __name__ == "__main__":
    sys.exit(main())
