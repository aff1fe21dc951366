"""Run hand-written mutants of ``cycledescent`` against the tier-1 tests.

Each mutant is one edit: a text of a file under ``src/`` and the text that
replaces it.  For each, the tool copies ``src/`` and ``tests/`` to a fresh
temporary directory, never touching the checkout, applies the edit there
and runs tier-1 with ``-x`` in the copy.  A mutant is killed when some test
fails and survives when all pass.  It prints one line per mutant and the
survivors at the end; the exit status is 1 when a mutant survives.

    python tools/mutants.py

Standard library and pytest only; it takes no options.  Not run by CI: a
killed mutant takes a few seconds and a survivor a whole tier-1 run.  A
mutant of a core can hand a walk a partner list that is no involution;
the component walks stop at the first slot they enter twice, so such a
mutant fails a check like any other.  A mutant that takes that bound away
can make a walk go round forever, growing its lists: tier-1 runs such
walks under a deadline of a few seconds, and as a second guard each copy
runs with its address space capped at ``MEMORY_CAP`` bytes, where a
runaway walk fails with MemoryError (tier-1 itself passes under the
cap), and a run that passes ``TIMEOUT_S`` counts as killed.
``tests/test_mutants.py`` checks that each old text occurs exactly once in
its file, so the list cannot go stale unnoticed; the copies run without
that test, which every mutant would fail.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STALENESS_TEST = "tests/test_mutants.py"
MEMORY_CAP = 2**30  # address space of each tier-1 copy
TIMEOUT_S = 600  # a tier-1 copy that runs longer has not passed
VERIFY, STATPOLYS = "src/cycledescent/verify.py", "src/cycledescent/statpolys.py"
PERMS, INVOLUTIONS = "src/cycledescent/perms.py", "src/cycledescent/involutions.py"
BIJECTIONS, MATCHINGS = "src/cycledescent/bijections.py", "src/cycledescent/matchings.py"
CLI, CAPS = "src/cycledescent/cli.py", "src/cycledescent/caps.py"

# (name, file, old text, new text), each old text found once in its file
MUTANTS = [
    (
        "closed-form skips i = n", VERIFY,
        "    for i in range(2 if derangements else 1, n + 1):\n"
        "        brute = sp._statistic_poly(tally, i, derangements).substitute(y=-1, q=1)",
        "    for i in range(2 if derangements else 1, n):\n"
        "        brute = sp._statistic_poly(tally, i, derangements).substitute(y=-1, q=1)",
    ),
    (
        "closed-form reads no empty sum", VERIFY,
        "    if derangements and not sp._statistic_poly(tally, 1, derangements=True).is_zero():",
        "    if False:",
    ),
    (
        "recurrence drops the derangement flag", VERIFY,
        "        brute = sp._statistic_poly(tally, i, derangements).substitute(q=1, t=1)",
        "        brute = sp._statistic_poly(tally, i).substitute(q=1, t=1)",
    ),
    (
        "cdes-poly compares the recurrence with itself", VERIFY,
        "    brute = sp._cdes_distribution_brute(tally, derangements)",
        "    brute = sp.cdes_distribution_rec(n, derangements)",
    ),
    (
        "identity fold checks brenti for every id", VERIFY,
        "    report = sp._identity_check(tally, identity_id, n)",
        '    report = sp._identity_check(tally, "brenti", n)',
    ),
    (
        "statistic core ignores derangements", STATPOLYS,
        '    family = "derangements_one_at_i" if derangements else "one_at_i"',
        '    family = "one_at_i"',
    ),
    (
        "weighted sum counts each tally key once", STATPOLYS,
        "            counts[exps] = counts.get(exps, 0) + sign * count",
        "            counts[exps] = counts.get(exps, 0) + sign",
    ),
    (
        "cdes brute sum ignores derangements", STATPOLYS,
        '    return _weighted_sum("derangements" if derangements else "all", tally, _weight_cdes)',
        '    return _weighted_sum("all", tally, _weight_cdes)',
    ),
    (
        "identity core reports every identity as holding", STATPOLYS,
        "    passed = lhs == rhs",
        "    passed = True",
    ),
    (
        "klazar count drops the last term of its sum", STATPOLYS,
        "c[m + 1 - i] * math.comb(m, i) for i in range(1, m + 1)",
        "c[m + 1 - i] * math.comb(m, i) for i in range(1, m)",
    ),
    (
        "b20 count drops the c[i] term", STATPOLYS,
        "            sum(math.comb(m, i) * (c[i + 1] + c[i]) for i in range(0, m))",
        "            sum(math.comb(m, i) * c[i + 1] for i in range(0, m))",
    ),
    (
        "recurrence table weights the later positions by x", STATPOLYS,
        "            for j in range(i, m):\n                acc = acc + Y * prev[j]",
        "            for j in range(i, m):\n                acc = acc + X * prev[j]",
    ),
    (
        "recurrence table rows keyed without their family", STATPOLYS,
        "    tables, totals = _TABLE_ROWS[derangements]",
        "    tables, totals = _TABLE_ROWS[False]",
    ),
    (
        "cdes recurrence rows keyed without their family", STATPOLYS,
        "    b = _CDES_ROWS[derangements]",
        "    b = _CDES_ROWS[False]",
    ),
    (
        "recurrence table hands out its shared row", STATPOLYS,
        "    return PolyTable(n=n, entries=dict(tables[n]))",
        "    return PolyTable(n=n, entries=tables[n])",
    ),
    (
        "run folds with the default seed", VERIFY,
        "        detail = _FOLDS[check_id](n, seed, *(results[walk, n] for walk in walks))",
        "        detail = _FOLDS[check_id]"
        "(n, DEFAULT_SEED, *(results[walk, n] for walk in walks))",
    ),
    (
        "run folds all but the last check", VERIFY,
        "    for check_id, n in plan:\n        walks = CHECK_LAYOUT[check_id][2]",
        "    for check_id, n in plan[:-1]:\n        walks = CHECK_LAYOUT[check_id][2]",
    ),
    (
        "plan ignores n_max", VERIFY,
        "        hi = cap if n_max is None else min(n_max, cap)",
        "        hi = cap",
    ),
    (
        "perm walk runs psi from n = 3", VERIFY,
        "        if n >= 2:\n            image, tag, psi_delta[k] = psi(",
        "        if n >= 3:\n            image, tag, psi_delta[k] = psi(",
    ),
    (
        "rank refuses no word that is no tuple", VERIFY,
        "        except (KeyError, TypeError):",
        "        except KeyError:",
    ),
    (
        "involution walk knows no unknown tag", VERIFY,
        "defaultdict(lambda: len(_TAGS), _TAG_CODE)",
        "_TAG_CODE",
    ),
    (
        "involution walk looks up a varphi tag that is no str", VERIFY,
        "varphi_tag[k] = rank(image), code[tag if type(tag) is str else 0]",
        "varphi_tag[k] = rank(image), code[tag]",
    ),
    (
        "involution walk keeps each stated delta in a byte", VERIFY,
        "        self.delta = [0] * size",
        "        self.delta = array(\"b\", bytes(size))",
    ),
    (
        "perm walk takes every psi result as phi's", VERIFY,
        "            if psi_tag[k] in _PHI_CODES:  # psi's phi branches give phi's record",
        "            if psi_tag[k]:  # psi's phi branches give phi's record",
    ),
    (
        "perm walk copies phi's record from varphi's", VERIFY,
        "                phi_img[k], phi_tag[k], phi_delta[k] = psi_img[k], psi_tag[k], psi_delta[k]",
        "                phi_img[k], phi_tag[k], phi_delta[k] = "
        "varphi_img[k], varphi_tag[k], varphi_delta[k]",
    ),
    (
        "law pass reads objects outside the map's domain", VERIFY,
        "        if not t:\n            continue  # outside the map's domain",
        "        if False:\n            continue  # outside the map's domain",
    ),
    (
        "law pass drops the excedance comparison", VERIFY,
        "        elif exc[j] != exc[k]:\n            law = \"excedances not preserved\"",
        "        elif False:\n            law = \"excedances not preserved\"",
    ),
    (
        "law pass keeps the last law failure of each i", VERIFY,
        "        if laws[i] is None:\n            laws[i] = ",
        "        if True:\n            laws[i] = ",
    ),
    (
        "psi law pass lets a fixed point map elsewhere", VERIFY,
        "\"branch {} paired with {}\", True)",
        "\"branch {} paired with {}\", False)",
    ),
    (
        "varphi law pass makes a fixed point map to itself", VERIFY,
        "\"branch pairing broken\", False\n",
        "\"branch pairing broken\", True\n",
    ),
    (
        "law pass swaps the fixed-point texts of psi and varphi", VERIFY,
        "\"bad fixed point\", \"branch {} paired with {}\", True)\n_VARPHI_LAWS = (\n"
        "    _code_pairs(_VARPHI_PAIRS), \"fixed point with cdes delta\",",
        "\"fixed point with cdes delta\", \"branch {} paired with {}\", True)\n"
        "_VARPHI_LAWS = (\n    _code_pairs(_VARPHI_PAIRS), \"bad fixed point\",",
    ),
    (
        "law pass swaps the pairing texts of psi and varphi", VERIFY,
        "\"branch {} paired with {}\", True)\n_VARPHI_LAWS = (\n"
        "    _code_pairs(_VARPHI_PAIRS), \"fixed point with cdes delta\","
        " \"branch pairing broken\"",
        "\"branch pairing broken\", True)\n_VARPHI_LAWS = (\n"
        "    _code_pairs(_VARPHI_PAIRS), \"fixed point with cdes delta\","
        " \"branch {} paired with {}\"",
    ),
    (
        "psi fold reports a later i's failure before an earlier one's", VERIFY,
        "    for i in range(1, n + 1):\n        if laws[i]:",
        "    for i in range(n, 0, -1):\n        if laws[i]:",
    ),
    (
        "varphi fold names every fixed point it found", VERIFY,
        "            shown = \", \".join(str(_unrank(k, n)) for k in fixed[i][:3])",
        "            shown = \", \".join(str(_unrank(k, n)) for k in fixed[i])",
    ),
    (
        "varphi fold sums non-derangements", VERIFY,
        "compress(zip(w.pos1, w.exc, w.cdes.translate(_PARITY)), w.varphi.tag)",
        "zip(w.pos1, w.exc, w.cdes.translate(_PARITY))",
    ),
    (
        "fixed-weight fold counts every record as even", VERIFY,
        "    sums = _signed_sums(n, zip(w.pos1, w.exc, w.cdes.translate(_PARITY)))",
        "    sums = _signed_sums(n, zip(w.pos1, w.exc, bytes(len(w.cdes))))",
    ),
    (
        "phi fold reports a false claim before a later law failure", VERIFY,
        "        if d != cdes[j] - cdes[k] and claim is None:\n            claim = ",
        "        if d != cdes[j] - cdes[k] and claim is None:\n            return ",
    ),
    (
        "signed walk counts one derangement per word", VERIFY,
        "        if not fix:\n            w.derangements += len(negs)",
        "        if not fix:\n            w.derangements += 1",
    ),
    (
        "signed walk records a theta trip for every object", VERIFY,
        "                if cyc == 1:  # theta is gamma on one cycle",
        "                if True:  # theta is gamma on one cycle",
    ),
    (
        "signed walk counts no missing image", VERIFY,
        "                w.unimaged += 1",
        "                w.unimaged += 0",
    ),
    (
        "gamma-image fold names no missing image", VERIFY,
        "    if s.unimaged:",
        "    if False:",
    ),
    (
        "signed walk lets a key past a byte through", VERIFY,
        "            except (IndexError, TypeError, ValueError):  # a key that names no slot",
        "            except (IndexError, TypeError):  # a key that names no slot",
    ),
    (
        "signed walk lets a key that is no int through", VERIFY,
        "            except (IndexError, TypeError, ValueError):  # a key that names no slot",
        "            except (IndexError, ValueError):  # a key that names no slot",
    ),
    (
        "signed walk lets a key the inverse core cannot follow through", VERIFY,
        "            except (IndexError, TypeError, ValueError):  # a key the inverse core",
        "            except (TypeError, ValueError):  # a key the inverse core",
    ),
    (
        "signed walk counts an unreadable image as a broken trip", VERIFY,
        "                trip = back == (cycles, neg)\n",
        "                trip = back == (cycles, neg) and bytes(partner)\n",
    ),
    (
        "signed walk takes com as cyc without reading the inverse core's cycles", VERIFY,
        "                com = len(back[0]) if back is not None else",
        "                com = cyc if back is not None else",
    ),
    (
        "signed walk drops the fallback for an inverse core that raised", VERIFY,
        "if back is not None else sum(1 for _ in walks(partner))",
        "if True else sum(1 for _ in walks(partner))",
    ),
    (
        "signed walk reads key 3 of an image outside its try", VERIFY,
        "                key, top = bytes(partner), partner[3]  # key 3 is (1, 1)\n"
        "            except (IndexError, TypeError, ValueError):  # a key that names no slot\n"
        "                w.unimaged += 1  # no matching: nothing else to read off the image\n"
        "                continue\n",
        "                key = bytes(partner)\n"
        "            except (IndexError, TypeError, ValueError):  # a key that names no slot\n"
        "                w.unimaged += 1  # no matching: nothing else to read off the image\n"
        "                continue\n"
        "            top = partner[3]  # key 3 is (1, 1)\n",
    ),
    (
        "shards merge in reverse order", VERIFY,
        "    for key in sorted(key for key in tasks if len(key) == 3):",
        "    for key in sorted((key for key in tasks if len(key) == 3), reverse=True):",
    ),
    (
        "shard merge skips the last shard", VERIFY,
        "    for key in sorted(key for key in tasks if len(key) == 3):",
        "    for key in sorted(key for key in tasks if len(key) == 3)[:-1]:",
    ),
    (
        "shard merge drops the first shard's count", VERIFY,
        "        self.count += later.count\n",
        "        self.count += later.count if self.count else 0\n",
    ),
    (
        "shard merge adds no transport breaks", VERIFY,
        "        self.breaks += later.breaks\n",
        "        self.breaks += 0\n",
    ),
    (
        "shard merge keeps a later shard's first failure", VERIFY,
        "            self.first.setdefault(check_id, witness)",
        "            self.first[check_id] = witness",
    ),
    (
        "signed walk tests no image", VERIFY,
        "            if (\n                up\n",
        "            if False and (\n                up\n",
    ),
    (
        "signed walk tests no image length", VERIFY,
        "                or len(key) != size\n",
        "",
    ),
    (
        "signed walk lets an upline through", VERIFY,
        "            if (\n                up\n",
        "            if (\n                False\n",
    ),
    (
        "signed walk lets a fixed key through", VERIFY,
        "(int.from_bytes(key, \"big\") ^ diagonal).to_bytes(size, \"big\").rfind(0) != 1",
        "(int.from_bytes(key, \"big\") ^ diagonal).to_bytes(size, \"big\").rfind(0) < 1",
    ),
    (
        "derangement-restriction ignores transport", VERIFY,
        "    \"derangement-restriction\": partial(_fold_image, derangements=True),",
        "    \"derangement-restriction\": _fold_image,",
    ),
    (
        "callan walk skips the last column", VERIFY,
        "    tops = range(3, 2 * n + 2, 2)  # the top key 2i + 1 of each slot i",
        "    tops = range(3, 2 * n, 2)  # the top key 2i + 1 of each slot i",
    ),
    (
        "gamma and theta skip the negative-cdes refusal", BIJECTIONS,
        "    if not sp.neg.issubset(cdes):\n        raise",
        "    if False:\n        raise",
    ),
    (
        "signed stream keeps fixed points under the derangement filter", BIJECTIONS,
        "        if fix and derangements:\n            continue",
        "        if False:\n            continue",
    ),
    (
        "signed stream shard takes one word past its letter", BIJECTIONS,
        "        words = islice(words, (letter - 1) * shard, letter * shard)",
        "        words = islice(words, (letter - 1) * shard, letter * shard + 1)",
    ),
    (
        "signed stream signs no largest cycle descent", BIJECTIONS,
        "        descents = tuple(sorted(cdes))",
        "        descents = tuple(sorted(cdes))[:-1]",
    ),
    (
        "signed JSON reader takes a value that is not an object", BIJECTIONS,
        "    if not isinstance(data, dict):\n"
        "        raise ValueError(\"signed permutation JSON must be an object\")",
        "    if False:\n"
        "        raise ValueError(\"signed permutation JSON must be an object\")",
    ),
    (
        "signed JSON reader compares an n that is no int as a length", BIJECTIONS,
        "    if type(n) is int and n != len(one_line):",
        "    if n != len(one_line):",
    ),
    (
        "signed JSON reader takes neg values that are not integers", BIJECTIONS,
        "    if not all(type(v) is int for v in negatives):",
        "    if False:",
    ),
    (
        "matching JSON reader takes a value that is not an object", MATCHINGS,
        "    if not isinstance(data, dict):\n"
        "        raise ValueError(\"matching JSON must be an object\")",
        "    if False:\n        raise ValueError(\"matching JSON must be an object\")",
    ),
    (
        "matching stream lets the first refused key through", MATCHINGS,
        "                if b & 1 and b >= refuse_from:",
        "                if b & 1 and b > refuse_from:",
    ),
    (
        "matching stream pairs the last two keys without the refusal", MATCHINGS,
        "            if a & 1 or not (b & 1 and b >= a + gap):",
        "            if True:",
    ),
    (
        "keyed edges drop the edges of adjacent keys", MATCHINGS,
        "    return ((k, q) for k, q in enumerate(m.partner) if k < q)",
        "    return ((k, q) for k, q in enumerate(m.partner) if k < q - 1)",
    ),
    (
        "varphi skips the derangement refusal", INVOLUTIONS,
        "    if fix:\n        raise",
        "    if False:\n        raise",
    ),
    (
        "phi_map skips the increasing-flattening refusal", INVOLUTIONS,
        "    if qv is None:\n        raise",
        "    if False:\n        raise",
    ),
    (
        "cycle walk never sets the top-descent at a cycle boundary", PERMS,
        "        if flat and flat[-1] > start:",
        "        if False:",
    ),
    (
        "tally counts an insertion after a fixed point as a cdes", STATPOLYS,
        "                cdes + (b > a),\n                m if b == 1",
        "                cdes + (b >= a),\n                m if b == 1",
    ),
    (
        "psi core detaches one element too few in case 1", INVOLUTIONS,
        "        return _swapped(word, 1, first[m - 1]), \"psi-case1\", -1",
        "        return _swapped(word, 1, first[m - 2]), \"psi-case1\", -1",
    ),
    (
        "m_index scan takes an ascent for its descent", INVOLUTIONS,
        "        if c < prev and m is None:",
        "        if c > prev and m is None:",
    ),
    (
        "m_index scan drops its count of the values above c_1", INVOLUTIONS,
        "    return m if above == n - c1 else 1",
        "    return m",
    ),
    (
        "staircase scan compares the decreasing run with <=", INVOLUTIONS,
        "            if top < j - 1:  # an ascent after the decreasing run began",
        "            if top <= j - 1:  # an ascent after the decreasing run began",
    ),
    (
        "staircase scan drops the bound set by the entry before the maximum", INVOLUTIONS,
        "        elif top and seq[j] < seq[top - 1]:",
        "        elif False:",
    ),
    (
        "varphi core merges by the wrong comparison", INVOLUTIONS,
        "        if prev[1] < last[top - 1]:",
        "        if prev[1] > last[top - 1]:",
    ),
    (
        "phi core merges at the next cycle's minimum", INVOLUTIONS,
        "        return _swapped(word, top, cycles[k + 1][-1]), \"phi-merge\", 1",
        "        return _swapped(word, top, cycles[k + 1][0]), \"phi-merge\", 1",
    ),
    (
        "theta closes at the wrong end of the last block", BIJECTIONS,
        "    b = 2 * tail if odd else 2 * head + 1",
        "    b = 2 * head + 1 if odd else 2 * tail",
    ),
    (
        "unfold signs the largest value of the walk positive", BIJECTIONS,
        "                block.pop()  # the block minimum is positive",
        "                block.pop(0)  # the block minimum is positive",
    ),
    (
        "unfold signs a block of one index negative", BIJECTIONS,
        "            if block is None:\n                cycle.append(low)\n",
        "            if block is None:\n                cycle.append(low)\n"
        "                neg.append(low)\n",
    ),
    (
        # no exhaustive walk reaches such a block: the long-block property
        # test of tests/test_properties.py kills it
        "unfold sorts a long block closed by an arc increasingly", BIJECTIONS,
        "                block.sort(reverse=True)\n                cycle += block",
        "                block.sort(reverse=len(block) < 8)\n                cycle += block",
    ),
    (
        "unfold walks without a bound", BIJECTIONS,
        "        if seen[i]:\n            break\n",
        "        if False:\n            break\n",
    ),
    (
        "gamma_inv core skips the component of slot 1", BIJECTIONS,
        "    for start in range(1, len(seen)):",
        "    for start in range(2, len(seen)):",
    ),
    (
        "component walks go without a bound", MATCHINGS,
        "                if seen[key >> 1]:\n                    break\n                keys.append",
        "                if False:\n                    break\n                keys.append",
    ),
    (
        "edge kernel counts a vertical as an upline", MATCHINGS,
        "            if q == k + 1:\n                ver += 1\n            elif q > k:\n"
        "                up += 1\n",
        "            if q > k:\n                up += 1\n            elif q == k + 1:\n"
        "                ver += 1\n",
    ),
    (
        "match_stats core counts verticals as arcs", MATCHINGS,
        "    return MatchStats(m.n - up - down - ver, up, down, ver, com)",
        "    return MatchStats(m.n - up - down, up, down, ver, com)",
    ),
    (
        "cli imports verify at module level", CLI,
        "from .caps import CAPS, DEFAULT_SEED, SUITES, check_cap, suite_cap\n",
        "from .caps import CAPS, DEFAULT_SEED, SUITES, check_cap, suite_cap\n"
        "from .verify import run_verification  # noqa: F401\n",
    ),
    (
        "cli parses every request with the top-level parser", CLI,
        "    command = _COMMANDS.get(argv[0]) if argv else None\n",
        "    command = None\n",
    ),
    (
        "cli hands the command name to the command's parser", CLI,
        "    args, extras = command.parse_known_args(argv[1:])",
        "    args, extras = command.parse_known_args(argv)",
    ),
    (
        "cli lets leftover arguments through", CLI,
        "    if extras:\n        _PARSER.error(",
        "    if False:\n        _PARSER.error(",
    ),
    (
        "cli refuses leftover arguments with the command's usage line", CLI,
        "        _PARSER.error(f\"unrecognized arguments:",
        "        command.error(f\"unrecognized arguments:",
    ),
    (
        "cli reads no sys.argv for argv None", CLI,
        "        return _PARSER.parse_args(argv)\n",
        "        return _PARSER.parse_args(argv or [])\n",
    ),
    (
        "cli leaves the command unset", CLI,
        "    args.command = argv[0]\n",
        "",
    ),
    (
        "layout caps theta-image by the signed enumeration", CAPS,
        "        \"theta-image\": (1, _IMAGES, _BIJ),",
        "        \"theta-image\": (1, _SIGNED, _BIJ),",
    ),
]


def run_mutant(file: str, old: str, new: str) -> tuple[bool, float]:
    """Whether tier-1 kills the mutant, and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        target = copy / file
        target.write_text(target.read_text().replace(old, new, 1))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        command = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--ignore", STALENESS_TEST,
        ]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command, cwd=copy, env=env, capture_output=True,
                preexec_fn=cap_memory, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - start
        return proc.returncode != 0, time.perf_counter() - start


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def main() -> int:
    survivors = []
    for name, file, old, new in MUTANTS:
        text = (ROOT / file).read_text()
        if text.count(old) != 1:
            print(f"stale: {name}: its old text occurs {text.count(old)} times in {file}")
            return 2
        line = text[: text.index(old)].count("\n") + 1
        killed, seconds = run_mutant(file, old, new)
        print(f"{'killed' if killed else 'SURVIVED'}  {seconds:5.1f} s  {file}:{line}  {name}")
        if not killed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed")
    for name in survivors:
        print(f"survived: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
