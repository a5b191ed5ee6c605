"""Helpers the test files share, and the mutation sweep's hypothesis profile."""

from __future__ import annotations

import contextlib
import signal

from hypothesis import Phase, settings

# `tools/mutation_sweep.py` runs the tests with --hypothesis-profile=sweep.
# It needs only whether a test fails, not its smallest failing example,
# and shrinking one on a slow mutant can take minutes. Derandomized, every
# run draws the same examples and keeps no example database, so two sweeps
# of one tree find the same survivors.
settings.register_profile(
    "sweep", derandomize=True,
    phases=[phase for phase in Phase if phase is not Phase.shrink])


@contextlib.contextmanager
def time_bound(seconds):
    """Fail the enclosed block with TimeoutError once it runs ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"example ran over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
