"""Host-speed samples: a fixed pure-Python kernel timed inside the measured processes.

The benchmark host is shared: the same pure-Python loop runs up to about
1.6 times slower for seconds to minutes at a time, and CPU time slows with
wall time.  While a workload runs, ``sampling()`` has SIGALRM run ``kernel()``
every ``INTERVAL_S`` in the measured process itself, and in every process it
forks (the verify pool's workers), so the kernel meets the same cores, caches
and slow phases as the program (about 1.5% of the run).  ``speed_factor``
turns the samples taken during a span into the factor
``REFERENCE_S / mean kernel CPU time``; ``run.py`` multiplies each timed
span by it, so timings read in seconds of a host that runs the kernel in
``REFERENCE_S``.  The mean, not the median: a span's time is the integral
of the host's slowness over it, and slow samples weigh in full.  The kernel
is the benchmark's own code and runs with the garbage collector off on a
fixed working set, so the package's heap cannot slow it: no change to the
package can move it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import signal
import statistics
import time
from pathlib import Path

import gen

INTERVAL_S = 0.25
MARGIN_S = 1.0  # samples this close to a span also describe it
REFERENCE_S = 0.0035  # kernel CPU time on a quiet reference host

_rng = random.Random(0)
_WORDS = [_rng.sample(range(1, 9), 8) for _ in range(1000)]


def kernel() -> float:
    """CPU seconds of this thread to tally the cycle shapes of 1000 fixed words.

    Like the package, it walks cycles and builds small tuples, frozensets and
    dicts, so it meets the same slowdowns of the host.  The collector is off
    while it runs: a collection set off by its allocations would walk the
    measured program's whole heap and charge that heap to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.thread_time()
    counts: dict = {}
    for word in _WORDS:
        cycles = gen.cycles_of(word)
        key = (len(cycles), frozenset(gen.cycle_descents(cycles)))
        counts[key] = counts.get(key, 0) + 1
    elapsed = time.thread_time() - t0
    if enabled:
        gc.enable()
    return elapsed


@contextlib.contextmanager
def sampling(spill_dir: Path):
    """Collect [monotonic time, kernel seconds] samples every INTERVAL_S.

    Forked children sample too and append to files in ``spill_dir``, which
    are merged into the samples when the context ends.
    """
    samples: list[list[float]] = []
    parent = os.getpid()
    spill: Path | None = None  # set in a forked child

    def sample(signum, frame) -> None:
        entry = [time.monotonic(), kernel()]
        if spill is None:
            samples.append(entry)
        else:
            with spill.open("a") as fh:
                fh.write(json.dumps(entry) + "\n")

    def in_child() -> None:
        nonlocal spill
        if signal.getsignal(signal.SIGALRM) is sample:
            spill = spill_dir / f"calib-{parent}-{os.getpid()}.jsonl"
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    spill_dir.mkdir(exist_ok=True)
    os.register_at_fork(after_in_child=in_child)
    previous = signal.signal(signal.SIGALRM, sample)
    kernel()  # warm up; a first, cold run would read slow
    sample(signal.SIGALRM, None)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sample(signal.SIGALRM, None)
        for path in spill_dir.glob(f"calib-{parent}-*.jsonl"):
            samples += [json.loads(line) for line in path.read_text().splitlines() if line]
            path.unlink()
        samples.sort()


def speed_factor(samples: list[list[float]], start: float, end: float) -> float:
    """REFERENCE_S over the mean kernel time sampled in [start, end] (with margin)."""
    inside = [k for t, k in samples if start - MARGIN_S <= t <= end + MARGIN_S]
    if not inside:
        raise ValueError("no host-speed sample near the span")
    return REFERENCE_S / statistics.fmean(inside)
