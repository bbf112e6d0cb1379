"""Regression: the SIGALRM guard must survive streaming-style re-entry.

The streaming consumer calls ``guarded_mine`` once per sealed window —
many guard enter/exit cycles in one process, each nested under whatever
outer alarm the host application keeps armed.  The satellite's claim to
pin: every exit restores the outer handler AND re-arms the outer timer
with its *remaining* delay, so the remaining time decreases monotonically
across back-to-back guarded calls and the outer deadline still fires at
(approximately) its original wall-clock time instead of being reset or
cancelled by each cycle.
"""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.mining.frequent import frequent_itemsets
from repro.mining.guards import _wall_clock_limit, guarded_mine

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread(),
    reason="SIGALRM guard arms only with setitimer on the main thread",
)

TRANSACTIONS = [(0, 1, 2), (0, 1), (1, 2), (0, 2), (2, 3)] * 4


def windowed_mine(n_windows: int, time_limit: float = 5.0):
    """The streaming shape: back-to-back guarded mining calls."""
    reports = []
    for _ in range(n_windows):
        reports.append(
            guarded_mine(
                frequent_itemsets, TRANSACTIONS, min_support=2, max_patterns=1000,
                time_limit=time_limit,
            )
        )
    return reports


class TestGuardReentry:
    def _clear_alarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def test_outer_timer_decreases_monotonically_across_calls(self):
        original = signal.signal(signal.SIGALRM, lambda s, f: None)
        try:
            signal.setitimer(signal.ITIMER_REAL, 30.0)
            remaining_after = []
            for _ in range(4):
                time.sleep(0.02)
                report = guarded_mine(
                    frequent_itemsets, TRANSACTIONS, min_support=2,
                    max_patterns=1000, time_limit=5.0,
                )
                assert report.feasible
                # Outer handler back in place after every cycle...
                assert signal.getsignal(signal.SIGALRM) is not None
                remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
                remaining_after.append(remaining)
                # ...and the outer delay re-armed, not reset to 30s.
                assert 0.0 < remaining <= 30.0
                signal.setitimer(signal.ITIMER_REAL, remaining)
            # Each cycle consumed wall-clock from the *same* outer budget:
            # strictly decreasing, never replenished by a guard exit.
            assert all(
                later < earlier
                for earlier, later in zip(remaining_after, remaining_after[1:])
            )
        finally:
            signal.signal(signal.SIGALRM, original)
            self._clear_alarm()

    def test_outer_handler_survives_every_cycle(self):
        def outer_handler(signum, frame):
            pass

        original = signal.signal(signal.SIGALRM, outer_handler)
        try:
            for _ in range(5):
                windowed_mine(1)
                assert signal.getsignal(signal.SIGALRM) is outer_handler
        finally:
            signal.signal(signal.SIGALRM, original)
            self._clear_alarm()

    def test_outer_deadline_fires_despite_interleaved_guards(self):
        """An outer alarm set before a burst of windowed mining still
        fires on schedule — the guards only ever borrow the timer."""
        fired = []
        original = signal.signal(signal.SIGALRM, lambda s, f: fired.append(s))
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            deadline = time.monotonic() + 3.0
            while not fired and time.monotonic() < deadline:
                windowed_mine(1)
                time.sleep(0.02)
            assert fired, "outer deadline was lost across guard re-entry"
        finally:
            signal.signal(signal.SIGALRM, original)
            self._clear_alarm()

    def test_nested_reentry_inside_outer_guard(self):
        """A guard inside a guard (stream consumer itself wrapped in a
        wall-clock limit) composes: inner cycles restore the outer
        guard's timer, and results stay correct."""
        with _wall_clock_limit(10.0):
            reports = windowed_mine(3, time_limit=2.0)
        assert all(r.feasible for r in reports)
        baseline = frequent_itemsets(TRANSACTIONS, min_support=2)
        for report in reports:
            assert [
                (p.items, p.support) for p in report.result.patterns
            ] == [(p.items, p.support) for p in baseline.patterns]
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
        assert remaining == 0.0  # nothing left armed after full unwind
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def test_no_stray_alarm_after_windowed_burst(self):
        windowed_mine(4)
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
        assert remaining == 0.0
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
