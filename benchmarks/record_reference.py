"""Record ``reference.json``, the verdicts every benchmark run is gated on.

    python3 benchmarks/record_reference.py --label <commit>

Run it once, at the commit the benchmark was defined on, and commit the
file.  It records per suite the ``checks_run`` and the notes (the
downline-global-report notes embed how many objects each size visited), the
b21/b20 counts those checks imply for n <= 7, and the malformed one-shot
requests that end in an uncaught exception at that commit.  Re-recording it
later would hide a regression; do so only when a change is meant to alter
these verdicts, and say so.
"""

from __future__ import annotations

import argparse
import json

import gen
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the commit being recorded")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    deadline = run.Deadline(600)
    suites = {}
    for group in (run.PERM_SUITES, run.CALLAN_SUITES):
        result = run.child("verify", {"suites": group, "seed": args.seed}, deadline)
        for (name, n_max, jobs), s in zip(group, result["suites"]):
            if s.get("exit_code") != 0:
                raise SystemExit(f"suite {name} does not pass: {s}")
            suites[name] = {"n_max": n_max, "jobs": jobs, "checks_run": s["checks_run"], "notes": s["notes"]}

    counts = run.run_child(
        [
            "-c",
            "import sys; sys.path.insert(0, 'src'); from cycledescent import statpolys as sp;"
            " print([sp.klazar_count(n) for n in range(1, 8)]);"
            " print([sp.b20_count(n) for n in range(1, 8)])",
        ],
        deadline,
    ).splitlines()

    cli = run.child("cli", {"seed": args.seed, "seconds": 0}, deadline)
    requests = gen.request_list(args.seed)
    defects = {
        requests[f["index"]]["malformed"]: f["why"]
        for f in cli["failures"]
        if requests[f["index"]].get("malformed") and f["why"].startswith("uncaught exception")
    }
    reference = {
        "recorded_at": args.label,
        "suites": suites,
        "b21": json.loads(counts[0]),
        "b20": json.loads(counts[1]),
        "known_cli_defects": dict(sorted(defects.items())),
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(json.dumps({k: v for k, v in reference.items() if k != "suites"}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
