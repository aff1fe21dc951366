"""
Command-line surface.

Commands: ``verify`` (exhaustive theorem batteries), ``table`` (bundled
involution tables), ``seq`` (counting sequences), ``enum`` (object
streams), ``map`` (the matching bijections), ``diagram`` (dot diagrams)
and ``stats`` (single-permutation statistics).  All state lives on the
command line; exit status 0 means every requested check passed, 1 that
a check failed, 2 bad input, and 141 (128 + SIGPIPE) that the reader of
standard output went away before it was written, as in ``| head``.

``main(argv)`` parses a request that names a command with that command's
parser alone, and refuses what it leaves in the top-level parser's words,
as the top-level pass would; any other argv (help, an unknown command, a
leading option, or ``None`` for ``sys.argv[1:]``) goes to the top-level
parser.  Both are built once, at import.

``verify``, ``table`` and ``seq`` import ``verify``, ``reftables`` and
``statpolys`` when they run; the parser reads the suites and caps of its
``verify`` help from ``caps``.  Importing this module, and the other
commands, load only the object layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bijections as bj
from . import diagrams
from . import matchings as mt
from . import perms
from .caps import CAPS, DEFAULT_SEED, SUITES, check_cap, suite_cap


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the parser of each command by its name."""
    parser = argparse.ArgumentParser(
        prog="cycledescent",
        description="Cycle-descent statistics, involutions and matching bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    caps = ", ".join(f"{s} <= {suite_cap(s)}" for s in SUITES)
    p_verify = sub.add_parser(
        "verify",
        help="run an exhaustive verification suite",
        description=(
            "Run one verification suite.  Without --n-max every check runs up"
            f" to its own documented cap (suite caps: {caps}; closed forms,"
            f" recurrences and signed identities run to n <= {CAPS['brute force']},"
            f" the cdes distribution to n <= {CAPS['cdes distribution']}, the"
            f" involution laws to n <= {CAPS['involution tables']}, matching"
            " enumeration and round trips to n <="
            f" {CAPS['signed enumeration']}, image-set equality to n <="
            f" {CAPS['image sets']}).  An --n-max beyond the suite cap is"
            " refused rather than truncated."
        ),
    )
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_verify.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for randomized checks"
    )

    p_table = sub.add_parser("table", help="print an involution table")
    p_table.add_argument("kind", choices=("psi", "varphi"))
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--i", type=int, default=None)

    recurrence, listing = CAPS["sequence recurrences"], CAPS["CLI matching enumeration"]
    p_seq = sub.add_parser(
        "seq",
        help="print a counting sequence",
        description=(
            "b21: signed cycle-descent permutation counts by recurrence"
            f" (n <= {recurrence}); b20: the derangement analogue"
            f" (n <= {recurrence}); mn: Callan matchings by exhaustive"
            f" enumeration (n <= {listing})."
        ),
    )
    p_seq.add_argument("which", choices=("b21", "b20", "mn"))
    p_seq.add_argument("--n-max", type=int, required=True)

    p_enum = sub.add_parser("enum", help="stream combinatorial objects")
    p_enum.add_argument("what", choices=("callan", "ncdp", "matchings"))
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--filter", dest="flt", default=None)
    p_enum.add_argument("--format", choices=("json", "text"), default="text")

    p_map = sub.add_parser(
        "map",
        help="apply a bijection",
        description=(
            "gamma/theta take signed cycle notation like"
            " '(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)' or signed-permutation JSON;"
            " gamma-inv/theta-inv take matching JSON.  --input '-' reads stdin."
        ),
    )
    p_map.add_argument("which", choices=("gamma", "gamma-inv", "theta", "theta-inv"))
    p_map.add_argument("--input", required=True)
    p_map.add_argument("--format", choices=("json", "svg", "text"), default="text")

    p_diag = sub.add_parser(
        "diagram",
        help="render a dot diagram",
        description=(
            "Input is matching JSON or signed cycle notation (signed"
            " permutations are mapped to their matching first).  Non-Callan"
            " matchings render with a warning."
        ),
    )
    p_diag.add_argument("--input", required=True)
    p_diag.add_argument("--format", choices=("svg", "text"), default="text")

    p_stats = sub.add_parser("stats", help="statistics of one permutation")
    p_stats.add_argument("--perm", required=True, help="one-line or cycle notation")

    return parser, sub.choices


_PARSER, _COMMANDS = _build_parser()


def _read_input(raw: str) -> str:
    return sys.stdin.read() if raw == "-" else raw


def _cmd_verify(args) -> int:
    from .verify import run_verification

    summary = run_verification(args.suite, args.n_max, jobs=args.jobs, seed=args.seed)
    if args.json:
        print(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"suite {summary.suite}: {summary.checks_run} checks,"
            f" sizes {summary.n_lo}..{summary.n_hi},"
            f" {len(summary.failures)} failures"
        )
        for f in summary.failures:
            print(f"FAIL {f.check_id} n={f.n}: {f.detail}")
        for r in summary.notes:
            print(f"note {r.check_id} n={r.n}: {r.detail}")
    return summary.exit_code


def _cmd_table(args) -> int:
    from .reftables import emit_table

    sys.stdout.write(emit_table(args.kind, args.n, args.i))
    return 0


def _cmd_seq(args) -> int:
    from .statpolys import b20_count, klazar_count

    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    check_cap(
        "CLI matching enumeration" if args.which == "mn" else "sequence recurrences",
        args.n_max,
    )
    if args.which == "b21":
        values = [klazar_count(n) for n in range(1, args.n_max + 1)]
    elif args.which == "b20":
        values = [b20_count(n) for n in range(1, args.n_max + 1)]
    else:
        values = [
            sum(1 for _ in mt.enumerate_matchings(n, "callan"))
            for n in range(1, args.n_max + 1)
        ]
    print(" ".join(map(str, values)))
    return 0


def _cmd_enum(args) -> int:
    if args.what in ("callan", "matchings"):
        flt = args.flt or ("callan" if args.what == "callan" else "all")
        check_cap("CLI matching enumeration", args.n)
        for m in mt.enumerate_matchings(args.n, flt):
            if args.format == "json":
                _emit_matching(m, "json")
            else:
                print(m)
    else:
        for s in bj.enumerate_negative_cdes(args.n, args.flt or "all"):
            _emit_signed(s, args.format)
    return 0


def _load_json(text: str):
    """``json.loads``, with JSON nested too deep to parse refused as bad input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _parse_signed_input(text: str) -> bj.SignedPermutation:
    text = text.strip()
    if text.startswith("{"):
        return bj.signed_from_json_dict(_load_json(text))
    return bj.parse_signed(text)


def _parse_matching_input(text: str) -> mt.PerfectMatching:
    try:
        data = _load_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid matching JSON: {exc}") from None
    return mt.matching_from_json_dict(data)


def _emit_matching(m: mt.PerfectMatching, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(mt.matching_to_json_dict(m)))
    elif fmt == "svg":
        sys.stdout.write(diagrams.render_svg(m))
    else:
        sys.stdout.write(diagrams.render_text(m))


def _emit_signed(s: bj.SignedPermutation, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(bj.signed_to_json_dict(s)))
    elif fmt == "svg":
        raise ValueError("svg output applies to matching-valued maps only")
    else:
        print(bj.format_signed(s))


def _cmd_map(args) -> int:
    text = _read_input(args.input)
    if args.which in ("gamma", "theta"):
        signed = _parse_signed_input(text)
        result = bj.gamma(signed) if args.which == "gamma" else bj.theta(signed)
        _emit_matching(result, args.format)
    else:
        m = _parse_matching_input(text)
        result = bj.gamma_inv(m) if args.which == "gamma-inv" else bj.theta_inv(m)
        _emit_signed(result, args.format)
    return 0


def _cmd_diagram(args) -> int:
    text = _read_input(args.input).strip()
    if text.startswith("{"):
        m = _parse_matching_input(text)
    else:
        m = bj.gamma(bj.parse_signed(text))
    _emit_matching(m, args.format)
    return 0


def _cmd_stats(args) -> int:
    p = perms.parse_permutation(args.perm)
    # one walk gives the cycles and every statistic printed
    walk = perms._walk_word(p.word)
    s = perms._stat_record(*walk[:4])
    print(f"one-line: {p}")
    print(f"cycles:   {perms.CycleDecomposition._trusted(walk[0])}")
    print(f"n={p.n} exc={s.exc} fix={s.fix} cyc={s.cyc} cdes={s.cdes}")
    print(f"cdes set: {sorted(s.cdes_set)}")
    print(f"position of 1: {s.inv1}")
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "table": _cmd_table,
    "seq": _cmd_seq,
    "enum": _cmd_enum,
    "map": _cmd_map,
    "diagram": _cmd_diagram,
    "stats": _cmd_stats,
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, without the top-level pass when argv
    names a command: that pass would only sort the arguments and hand all of
    them to the command's parser."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:  # help, a bad command, or sys.argv[1:] for None
        return _PARSER.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        status = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: what is still buffered goes to devnull, so
        # the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
