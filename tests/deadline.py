"""``deadline(seconds)``: a context manager that raises ``TimeoutError`` in
its body once ``seconds`` of wall time have passed, so that a loop that
never ends fails its test instead of hanging the run.  It sets the real
interval timer of the process and its ``SIGALRM`` handler, and puts both
back on exit; it is for the main thread of a POSIX process."""

import signal
from contextlib import contextmanager


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
