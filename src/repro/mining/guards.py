"""The wall-clock guard for mining runs.

At ``min_sup = 1`` the paper reports that exhaustive enumeration "cannot
complete in days" (Chess) or yields millions of patterns that break feature
selection (Waveform: 9,468,109; Letter: 5,147,030).  Two guards reproduce
that *outcome* safely: every miner's pattern budget
(:class:`~repro.mining.itemsets.PatternBudgetExceeded`) and the wall-clock
limit here, which :func:`~repro.mining.generation.mine_class_patterns`
arms per class partition through its ``time_limit``.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager

__all__ = ["MiningTimeLimitExceeded"]


class MiningTimeLimitExceeded(RuntimeError):
    """Raised inside a guarded run when the wall-clock limit expires."""

    def __init__(self, time_limit: float) -> None:
        self.time_limit = float(time_limit)
        super().__init__(
            f"mining exceeded the wall-clock limit of {time_limit:g}s"
        )


@contextmanager
def _wall_clock_limit(seconds: float | None):
    """Interrupt the enclosed block after ``seconds`` of wall-clock time.

    Implemented with ``SIGALRM``/``setitimer``, so the limit is best-effort:
    it only arms on the main thread of platforms that have ``setitimer``
    (POSIX).  Elsewhere the block runs unguarded — the pattern budget is
    then the only guard, which keeps guarded mining safe to call from
    worker threads.

    The guard is a good citizen toward surrounding alarm users: on exit it
    restores both the pre-existing ``SIGALRM`` handler *and* any remaining
    time on a pre-existing real-interval timer (minus the time the guarded
    block consumed), so an outer timeout keeps ticking instead of being
    silently cancelled.
    """
    can_arm = (
        seconds is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_arm:
        yield
        return

    def _on_alarm(signum, frame):
        raise MiningTimeLimitExceeded(seconds)

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    previous_delay, previous_interval = signal.setitimer(
        signal.ITIMER_REAL, seconds
    )
    armed_at = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if previous_delay > 0.0:
            # Re-arm the pre-existing timer with whatever time it had left;
            # if it should already have fired, schedule it near-immediately
            # so the outer deadline is late rather than lost.
            elapsed = time.monotonic() - armed_at
            remaining = max(previous_delay - elapsed, 1e-6)
            signal.setitimer(signal.ITIMER_REAL, remaining, previous_interval)
